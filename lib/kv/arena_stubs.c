/* Transparent huge pages for the slab arena.  The arena is one large
   Bytes value, which the OCaml runtime takes from malloc (an anonymous
   mapping at the arena's size).  On 4 KB pages, populating ~60 MB of
   items takes one minor fault per 4 KB; advised for huge pages, the
   kernel backs each whole 2 MB-aligned span inside the arena with one
   2 MB page on its first touch.

   The call never raises and allocates nothing on the OCaml heap, so it
   is declared [@@noalloc].  It reports failure, and the arena stays on
   4 KB pages, when the platform has no MADV_HUGEPAGE, when the kernel's
   THP setting is missing or selects [never], when the arena holds no
   whole 2 MB-aligned span, or when madvise refuses. */

#define _GNU_SOURCE
#define CAML_NAME_SPACE
#include <stdint.h>
#include <sys/mman.h>

#include <caml/mlvalues.h>

#ifdef MADV_HUGEPAGE
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#define HUGE_PAGE_BYTES ((uintptr_t)2 << 20)

/* Whether the kernel may back an advised region with huge pages: its
   THP setting exists and does not select [never]. */
static int thp_allowed(void)
{
  char buf[128];
  ssize_t n;
  int fd = open("/sys/kernel/mm/transparent_hugepage/enabled", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  n = read(fd, buf, sizeof(buf) - 1);
  close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  return strstr(buf, "[never]") == NULL;
}
#endif

/* minos_arena_advise_huge arena: advise the page-aligned span inside the
   arena's payload for huge pages.  Returns true when the THP setting
   allows them, the span holds at least one whole 2 MB-aligned page and
   madvise accepted the advice.  That says the advice is in place, not
   that a huge page was ever faulted in: the kernel may still back the
   span with 4 KB pages (fragmented memory, its defrag setting, a process
   with THP disabled).  The process's AnonHugePages shows what it did. */
value minos_arena_advise_huge(value arena)
{
#ifdef MADV_HUGEPAGE
  long page = sysconf(_SC_PAGESIZE);
  uintptr_t start = (uintptr_t)Bytes_val(arena);
  uintptr_t stop = start + caml_string_length(arena);
  uintptr_t huge = (start + HUGE_PAGE_BYTES - 1) & ~(HUGE_PAGE_BYTES - 1);
  uintptr_t lo, hi;
  if (page <= 0 || huge + HUGE_PAGE_BYTES > stop || !thp_allowed())
    return Val_false;
  lo = (start + (uintptr_t)page - 1) & ~((uintptr_t)page - 1);
  hi = stop & ~((uintptr_t)page - 1);
  return Val_bool(madvise((void *)lo, hi - lo, MADV_HUGEPAGE) == 0);
#else
  (void)arena;
  return Val_false;
#endif
}
