/* Socket calls for the native server's idle path that allocate nothing
   on the OCaml heap unless a datagram arrived: OCaml's Unix.recvfrom
   raises (and so allocates) on an empty non-blocking socket, and
   Unix.select builds lists.  In OCaml 5 every minor collection stops
   every domain, so an idle worker's allocation stalls the busy ones. */

#define _GNU_SOURCE
#define CAML_NAME_SPACE
#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/socketaddr.h>
#include <caml/unixsupport.h>

/* minos_udp_recv fd buf ofs len from: receive one datagram without
   blocking into buf[ofs, ofs + len).  Returns its length and stores its
   sender in from.(0), or returns -1 when no datagram is waiting (or the
   call was interrupted).  Other errors raise Unix.Unix_error. */
CAMLprim value minos_udp_recv(value fd, value buf, value ofs, value len, value from)
{
  CAMLparam5(fd, buf, ofs, len, from);
  CAMLlocal1(addr);
  union sock_addr_union sa;
  socklen_param_type sa_len = sizeof(sa);
  ssize_t n = recvfrom(Int_val(fd), &Byte(buf, Long_val(ofs)), Long_val(len), MSG_DONTWAIT,
                       &sa.s_gen, &sa_len);
  if (n == -1) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) CAMLreturn(Val_long(-1));
    caml_uerror("recvfrom", Nothing);
  }
  addr = caml_unix_alloc_sockaddr(&sa, sa_len, -1);
  caml_modify(&Field(from, 0), addr);
  CAMLreturn(Val_long(n));
}

/* minos_udp_wait_readable fd timeout_us: block until fd is readable or
   timeout_us microseconds pass, whichever is first, with the domain's
   runtime lock released.  Errors (EINTR included) return early. */
CAMLprim value minos_udp_wait_readable(value fd, value timeout_us)
{
  struct pollfd p;
  struct timespec ts;
  long us = Long_val(timeout_us);
  p.fd = Int_val(fd);
  p.events = POLLIN;
  p.revents = 0;
  ts.tv_sec = us / 1000000;
  ts.tv_nsec = (us % 1000000) * 1000;
  caml_enter_blocking_section();
  (void)ppoll(&p, 1, &ts, NULL);
  caml_leave_blocking_section();
  return Val_unit;
}
