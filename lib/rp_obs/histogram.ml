(* Fixed 64-bucket power-of-two histogram with striped recording.

   Bucket [i] (i >= 1) holds values in [2^(i-1), 2^i); bucket 0 holds
   zero and negatives. Each domain slot owns a private row of bucket
   counts plus a sum and max cell, so recording is a handful of plain
   stores on exclusively-owned memory; snapshots merge the rows. Values
   are raw integers — by convention nanoseconds for latencies, bytes for
   sizes. *)

let buckets = 64

(* 64 bucket counts + sum + max, padded to a cache-line multiple. *)
let row_stride = 72
let sum_off = buckets
let max_off = buckets + 1

type t = { rows : int array }

let create () = { rows = Array.make (Stripe.capacity * row_stride) 0 }

let bucket_of_value v =
  if v <= 0 then 0
  else begin
    let b = ref 0 in
    let v = ref v in
    while !v <> 0 do
      incr b;
      v := !v lsr 1
    done;
    Int.min (buckets - 1) !b
  end

(* Inclusive upper bound of bucket [i]; [max_int] for the last. *)
let upper_bound i =
  if i = 0 then 0
  else if i >= buckets - 1 then max_int
  else (1 lsl i) - 1

let observe t v =
  if Stripe.is_enabled () then begin
    let row = Stripe.index () * row_stride in
    let b = row + bucket_of_value v in
    Array.unsafe_set t.rows b (Array.unsafe_get t.rows b + 1);
    let s = row + sum_off in
    Array.unsafe_set t.rows s (Array.unsafe_get t.rows s + Int.max v 0);
    let m = row + max_off in
    if v > Array.unsafe_get t.rows m then Array.unsafe_set t.rows m v
  end

let observe_span t ~start ~stop =
  observe t (int_of_float ((stop -. start) *. 1e9))

type snapshot = { count : int; sum : int; max : int; counts : int array }

let snapshot t =
  let counts = Array.make buckets 0 in
  let sum = ref 0 and maxv = ref 0 in
  for s = 0 to Stripe.capacity - 1 do
    let row = s * row_stride in
    for b = 0 to buckets - 1 do
      counts.(b) <- counts.(b) + Array.unsafe_get t.rows (row + b)
    done;
    sum := !sum + t.rows.(row + sum_off);
    if t.rows.(row + max_off) > !maxv then maxv := t.rows.(row + max_off)
  done;
  let count = Array.fold_left ( + ) 0 counts in
  { count; sum = !sum; max = !maxv; counts }

(* Upper bound of the bucket holding the q-quantile observation: an
   estimate within a factor of two of the true value (the bucket width). *)
let percentile s q =
  if s.count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int s.count))) in
    let cum = ref 0 and result = ref (upper_bound (buckets - 1)) in
    (try
       for b = 0 to buckets - 1 do
         cum := !cum + s.counts.(b);
         if !cum >= rank then begin
           result := upper_bound b;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let mean s = if s.count = 0 then 0.0 else float_of_int s.sum /. float_of_int s.count
let reset t = Array.fill t.rows 0 (Array.length t.rows) 0
