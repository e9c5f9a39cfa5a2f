/* Slab pages, and the value copies in and out of them.

   A page is malloc'd memory outside the OCaml heap, which OCaml holds as
   an immediate: its address with the low bit set (malloc aligns to at
   least 8 bytes), so the GC neither scans it nor counts it as live
   data, and nothing about it paces the GC. A SET copies its value
   from the input window into a chunk of a page; a GET run copies it from
   the chunk into the reply staging. Both are one memcpy with no
   allocation and no OCaml callback, so the externals are [@@noalloc];
   bounds are the OCaml side's to check. */

#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>

#define Page_val(v) ((char *)((uintnat)(v) & ~(uintnat)1))

CAMLprim value slab_page_create(value len)
{
  void *data = malloc(Long_val(len));
  if (data == NULL) caml_raise_out_of_memory();
  return (value)((uintnat)data | 1);
}

CAMLprim value slab_page_free(value page)
{
  free(Page_val(page));
  return Val_unit;
}

CAMLprim value slab_blit_to_bytes(value page, value src_off, value dst, value dst_off,
                                  value len)
{
  memcpy(Bytes_val(dst) + Long_val(dst_off),
         (const char *)Page_val(page) + Long_val(src_off), Long_val(len));
  return Val_unit;
}

CAMLprim value slab_blit_from_bytes(value src, value src_off, value page, value dst_off,
                                    value len)
{
  memcpy(Page_val(page) + Long_val(dst_off),
         Bytes_val(src) + Long_val(src_off), Long_val(len));
  return Val_unit;
}

/* Cache hints for every line of the [len] bytes of a page from [off];
   a prefetch never faults. [write] asks for the lines to be written: a
   chunk about to take a value. */
CAMLprim value slab_prefetch(value page, value off, value len, value write)
{
#if defined(__GNUC__) || defined(__clang__)
  const char *p = (const char *)Page_val(page) + Long_val(off);
  const char *stop = p + Long_val(len);
  if (Bool_val(write)) {
    for (; p < stop; p += 64) __builtin_prefetch(p, 1);
    __builtin_prefetch(stop - 1, 1);
  } else {
    for (; p < stop; p += 64) __builtin_prefetch(p);
    __builtin_prefetch(stop - 1);
  }
#else
  (void)page;
  (void)off;
  (void)len;
  (void)write;
#endif
  return Val_unit;
}
