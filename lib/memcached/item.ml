(* An item is a slab chunk: a header of five words — access stamp,
   expiry, CAS, flags, value length — then the value (the layout is in
   slab_stubs.c). The table binds each key to the chunk's id, an
   immediate, so storing an item allocates nothing on the OCaml heap. A
   cold marker is a chunk too: length -1, and its segment frame in the
   three words after the header. *)

type t = int
type time = int

(* Binary fixed point: a float time converts exactly when it is a whole
   number of units, which holds for every float of at least 2^30 s (the
   float's own spacing is then 2^-22 s or coarser) — any clock reading
   or absolute expiry after January 2004. Saturates at 2^40 s. *)
let frac_bits = 22
let saturation = Float.ldexp 1.0 (62 - frac_bits)

let time_of_float f =
  if not (f > 0.) then 0
  else if f >= saturation then max_int
  else max 1 (Float.to_int (Float.ldexp f frac_bits))

let float_of_time i = Float.ldexp (Float.of_int i) (-frac_bits)

(* The stubs take the chunk's address ([Slab.address]). *)
external init : int -> int -> time -> int -> time -> Bytes.t -> int -> int -> unit
  = "slab_item_init_byte" "slab_item_init"
[@@noalloc]

external word : int -> int -> int = "slab_item_word" [@@noalloc]
external set_word : int -> int -> int -> unit = "slab_item_set_word" [@@noalloc]
external touch : int -> time -> unit = "slab_item_touch" [@@noalloc]

external serve_stub : int -> time -> int array -> int array -> int -> Bytes.t -> int -> int
  = "slab_item_serve_byte" "slab_item_serve"
[@@noalloc]

let header_bytes = 40
let cold_bytes = header_bytes + 24

(* Word indices of the header, and of a cold marker's frame. *)
let w_access = 0
let w_exptime = 1
let w_cas = 2
let w_flags = 3
let w_len = 4
let w_segment = 5
let w_offset = 6
let w_frame_len = 7

let[@inline] get slab t i = word (Slab.address slab t) i

let next_cas = Atomic.make 1
let overhead_bytes = 48
let mint_cas = function Some c -> c | None -> Atomic.fetch_and_add next_cas 1

let create slab ?cas ~flags ~exptime ~now src off len =
  if off < 0 || len < 0 || off > Bytes.length src - len then invalid_arg "Item.create";
  let t = Slab.alloc slab (header_bytes + len) in
  init (Slab.address slab t) flags exptime (mint_cas cas) now src off len;
  t

let of_string slab ?cas ~flags ~exptime ~now data =
  create slab ?cas ~flags ~exptime ~now (Bytes.unsafe_of_string data) 0 (String.length data)

let cold slab ~cas ~flags ~exptime ~now (segment, offset, len) =
  let t = Slab.alloc slab cold_bytes in
  let addr = Slab.address slab t in
  init addr flags exptime cas now Bytes.empty 0 (-1);
  set_word addr w_segment segment;
  set_word addr w_offset offset;
  set_word addr w_frame_len len;
  t

(* Replayed items keep their original CAS; push the allocator past them so
   post-recovery items never collide with a restored version. *)
let rec note_restored_cas cas =
  let cur = Atomic.get next_cas in
  if cas >= cur && not (Atomic.compare_and_set next_cas cur (cas + 1)) then
    note_restored_cas cas

let flags slab t = get slab t w_flags
let exptime slab t = get slab t w_exptime
let cas slab t = get slab t w_cas
let last_access slab t = get slab t w_access
let len slab t = Int.max 0 (get slab t w_len)
let is_cold slab t = get slab t w_len < 0

let location slab t =
  if is_cold slab t then
    Some (get slab t w_segment, get slab t w_offset, get slab t w_frame_len)
  else None

let expired exptime ~now = exptime > 0 && exptime <= now
let is_expired slab t ~now = expired (exptime slab t) ~now

(* A racy read-then-store of one aligned word: no allocation, no write
   barrier. Two readers racing may leave the older of their stamps. *)
let touch_access slab t ~now = touch (Slab.address slab t) now
let footprint slab ~key_len t = key_len + len slab t + overhead_bytes

let value slab t =
  let n = len slab t in
  let b = Bytes.create n in
  Slab.blit slab t header_bytes b 0 n;
  Bytes.unsafe_to_string b

let serve slab t ~now ~flags ~cas j vbuf fill =
  if j < 0 || j >= Array.length flags || j >= Array.length cas || fill < 0
     || fill > Bytes.length vbuf
  then invalid_arg "Item.serve";
  serve_stub (Slab.address slab t) now flags cas j vbuf fill

(* [Slab.prefetch] stops at the chunk's end, so the header need not be
   read for the value's length. *)
let prefetch slab t n = Slab.prefetch slab t (header_bytes + n)
let free slab t = Slab.free slab t
let retire slab rcu t = Slab.retire slab rcu t
