/* Socket calls for the native server's worker path that allocate nothing
   on the OCaml heap: OCaml's Unix.recvfrom raises (and so allocates) on
   an empty non-blocking socket and returns a fresh Unix.sockaddr per
   datagram, and Unix.select builds lists.  In OCaml 5 every minor
   collection stops every domain, so one worker's allocation stalls the
   others.

   A peer is kept as bytes, not as a Unix.sockaddr: PEER_BYTES bytes
   holding the address length (2 bytes, little-endian; 0 = none) and then
   the raw address.  The receive writes the sender there and the send
   reads the destination from there, so neither builds an OCaml value.
   Both calls pass MSG_DONTWAIT, never block, never raise and allocate
   nothing, so they are declared [@@noalloc] and keep the runtime lock. */

#define _GNU_SOURCE
#define CAML_NAME_SPACE
#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <time.h>

#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#define PEER_BYTES 32

/* minos_udp_recv fd buf ofs len peer: receive one datagram without
   blocking into buf[ofs, ofs + len).  Returns its length and writes its
   sender into peer[0, PEER_BYTES), or returns -1 when no datagram is
   waiting, the call was interrupted or it failed. */
value minos_udp_recv(value fd, value buf, value ofs, value len, value peer)
{
  struct sockaddr_storage sa;
  socklen_t sa_len = sizeof(sa);
  unsigned char *p = Bytes_val(peer);
  ssize_t n = recvfrom(Int_val(fd), &Byte(buf, Long_val(ofs)), Long_val(len), MSG_DONTWAIT,
                       (struct sockaddr *)&sa, &sa_len);
  if (n < 0) return Val_long(-1);
  if (caml_string_length(peer) < PEER_BYTES || sa_len > PEER_BYTES - 2) sa_len = 0;
  p[0] = sa_len & 0xFF;
  p[1] = (sa_len >> 8) & 0xFF;
  memcpy(p + 2, &sa, sa_len);
  return Val_long(n);
}

/* minos_udp_sendto fd buf ofs len peer peer_ofs: send buf[ofs, ofs + len)
   without blocking to the peer stored at peer[peer_ofs, peer_ofs +
   PEER_BYTES).  Returns the bytes sent, or -1 when the peer is unset or
   the kernel refused the datagram (a full socket buffer drops it, as the
   wire would: the client retransmits). */
value minos_udp_sendto(value fd, value buf, value ofs, value len, value peer, value peer_ofs)
{
  struct sockaddr_storage sa;
  const unsigned char *p;
  socklen_t sa_len;
  ssize_t n;
  if (Long_val(peer_ofs) < 0
      || (size_t)Long_val(peer_ofs) + PEER_BYTES > caml_string_length(peer))
    return Val_long(-1);
  p = Bytes_val(peer) + Long_val(peer_ofs);
  sa_len = p[0] | (p[1] << 8);
  if (sa_len == 0 || sa_len > PEER_BYTES - 2) return Val_long(-1);
  memcpy(&sa, p + 2, sa_len);
  n = sendto(Int_val(fd), &Byte(buf, Long_val(ofs)), Long_val(len), MSG_DONTWAIT,
             (struct sockaddr *)&sa, sa_len);
  return Val_long(n < 0 ? -1 : n);
}

value minos_udp_sendto_byte(value *argv, int argn)
{
  (void)argn;
  return minos_udp_sendto(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
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
