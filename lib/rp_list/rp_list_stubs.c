/* The read side's prefetch hint.

   rp_list_prefetch asks the cache for the line holding the byte at
   [off] from a block's first field, without waiting for it: a batch of
   lookups issues one such hint per dependent load, a whole stage ahead
   of the load itself, so the misses of independent keys overlap.
   A prefetch never faults and never changes memory; an immediate
   (a [Null] link, an int key) is not an address and is skipped. */

#include <caml/mlvalues.h>

CAMLprim value rp_list_prefetch(value v, intnat off)
{
#if defined(__GNUC__) || defined(__clang__)
  if (Is_block(v)) __builtin_prefetch((const char *)v + off);
#else
  (void)v;
  (void)off;
#endif
  return Val_unit;
}

CAMLprim value rp_list_prefetch_byte(value v, value off)
{
  return rp_list_prefetch(v, Long_val(off));
}
