/* The process's C allocator policy, applied once at start-up from
   [Util.Malloc_policy]. OCaml 5 mallocs every block above 128 words, so
   block and segment buffers, Blockstore pages and fresh heap chunks all
   come from glibc. With buffers recycled the process mallocs and frees
   less, and glibc's defaults then trim the heap top back to the kernel
   and fault those pages in again on the next growth. Never trim, and
   serve only chunks of 32 MiB or more with mmap (glibc's own ceiling for
   its dynamic threshold on 64-bit hosts), so freed memory stays in the
   process for reuse. Elsewhere than glibc this is a no-op. */

#include <caml/mlvalues.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

value util_malloc_policy(value unit)
{
  (void)unit;
#ifdef __GLIBC__
  mallopt(M_TRIM_THRESHOLD, -1);
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
#endif
  return Val_unit;
}
