/* Slab pages, and the item copies in and out of them.

   A page is malloc'd memory outside the OCaml heap, which OCaml holds as
   an immediate: its address with the low bit set (malloc aligns to at
   least 8 bytes), so the GC neither scans it nor counts it as live
   data, and nothing about it paces the GC. A SET writes its item —
   header and value, below — from the input window into a chunk of a
   page; a GET run copies it from the chunk into the reply staging. Each
   is one call with no allocation and no OCaml callback, so the externals
   are [@@noalloc]; bounds are the OCaml side's to check. */

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

/* Items in their chunks.

   An item is one chunk: a header of five native words, then the value.
   The words are, in order, the CLOCK access stamp, the absolute expiry,
   the CAS, the client flags and the value length; a cold marker (the
   value demoted to the disk tier) has length -1 and three more words
   after the header naming its segment frame: segment, offset, length.
   Times, CAS and flags are OCaml ints stored untagged.

   Every word is written by [slab_item_init] (or [slab_item_set_word]
   for a cold marker's frame) before the item is published, and only
   the access stamp is written after that: an aligned word that
   concurrent readers store racily, so the stamp alone is loaded and
   stored with relaxed atomics. */

#define Item_words 5
#define Item_hdr(addr) ((intnat *)((uintnat)(addr) & ~(uintnat)1))

CAMLprim value slab_item_init(value addr, value flags, value exptime, value cas, value now,
                              value src, value src_off, value len)
{
  intnat *h = Item_hdr(addr);
  h[0] = Long_val(now);
  h[1] = Long_val(exptime);
  h[2] = Long_val(cas);
  h[3] = Long_val(flags);
  h[4] = Long_val(len);
  if (Long_val(len) > 0)
    memcpy(h + Item_words, Bytes_val(src) + Long_val(src_off), Long_val(len));
  return Val_unit;
}

CAMLprim value slab_item_init_byte(value *argv, int argn)
{
  (void)argn;
  return slab_item_init(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                        argv[7]);
}

CAMLprim value slab_item_word(value addr, value i)
{
  return Val_long(__atomic_load_n(Item_hdr(addr) + Long_val(i), __ATOMIC_RELAXED));
}

CAMLprim value slab_item_set_word(value addr, value i, value v)
{
  __atomic_store_n(Item_hdr(addr) + Long_val(i), Long_val(v), __ATOMIC_RELAXED);
  return Val_unit;
}

/* Raise the access stamp to [now]; never lowers it. */
CAMLprim value slab_item_touch(value addr, value now)
{
  intnat *h = Item_hdr(addr);
  intnat n = Long_val(now);
  if (n > __atomic_load_n(h, __ATOMIC_RELAXED)) __atomic_store_n(h, n, __ATOMIC_RELAXED);
  return Val_unit;
}

/* A GET hit served from its chunk: unless the item has expired at [now]
   (-2) or is a cold marker (-3), its stamp is raised to [now], its flags
   and CAS go to slot [j] of [flags] and [cas] (int arrays: an immediate
   over an immediate needs no write barrier) and its value is copied
   into [vbuf] at [fill]; the value's length is returned. A value that
   does not fit in [vbuf] past [fill] is not copied: -4 - length is
   returned, for the caller to grow [vbuf] and call again. */
CAMLprim value slab_item_serve(value addr, value now, value flags, value cas, value j,
                               value vbuf, value fill)
{
  intnat *h = Item_hdr(addr);
  intnat n = Long_val(now);
  intnat exptime = h[1];
  intnat len = h[4];
  intnat at = Long_val(fill);
  if (exptime > 0 && exptime <= n) return Val_long(-2);
  if (len < 0) return Val_long(-3);
  if (at + len > (intnat)caml_string_length(vbuf)) return Val_long(-4 - len);
  if (n > __atomic_load_n(h, __ATOMIC_RELAXED)) __atomic_store_n(h, n, __ATOMIC_RELAXED);
  Field(flags, Long_val(j)) = Val_long(h[3]);
  Field(cas, Long_val(j)) = Val_long(h[2]);
  memcpy(Bytes_val(vbuf) + at, h + Item_words, len);
  return Val_long(len);
}

CAMLprim value slab_item_serve_byte(value *argv, int argn)
{
  (void)argn;
  return slab_item_serve(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}
