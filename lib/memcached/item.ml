(* Where an item's value lives. [Hot] values are in a slab chunk; a
   [Cold] item was demoted to the disk tier — it has no chunk and the location
   names the segment frame holding the real value (plain ints so this
   module stays free of tier dependencies). Flags, expiry and CAS stay
   in RAM either way: expiry checks and CAS arbitration never touch
   disk. *)
type location = Hot | Cold of { segment : int; offset : int; len : int }

type time = int

type t = {
  flags : int;
  exptime : time;
  chunk : int;
  len : int;
  cas : int;
  mutable last_access : time;
  location : location;
}

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

let next_cas = Atomic.make 1
let overhead_bytes = 48

let make ?cas ?(location = Hot) ~chunk ~flags ~exptime ~len ~now () =
  let cas = match cas with Some c -> c | None -> Atomic.fetch_and_add next_cas 1 in
  { flags; exptime; chunk; len; cas; last_access = now; location }

(* Replayed items keep their original CAS; push the allocator past them so
   post-recovery items never collide with a restored version. *)
let rec note_restored_cas cas =
  let cur = Atomic.get next_cas in
  if cas >= cur && not (Atomic.compare_and_set next_cas cur (cas + 1)) then
    note_restored_cas cas

let is_expired t ~now = t.exptime > 0 && t.exptime <= now
let is_cold t = match t.location with Hot -> false | Cold _ -> true

(* A racy read-then-store of an immediate: no allocation, no write
   barrier. Two readers racing may leave the older of their stamps. *)
let touch_access t ~now = if now > t.last_access then t.last_access <- now
let footprint ~key_len t = key_len + t.len + overhead_bytes
let size_bytes ~key t = footprint ~key_len:(String.length key) t
