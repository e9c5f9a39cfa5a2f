(* Striped monotonic counter: one cache-line-padded cell per domain slot.
   The hot path is a plain load/add/store on the caller's exclusive cell —
   no atomic RMW, no sharing. [read] sums the stripes; it may trail
   in-flight increments on other domains (each cell is monotonic, so the
   sum is a consistent lower bound) and is exact once writers have
   synchronized with the reader (domain join, mutex, …). *)

type t = { cells : int array }

let create () = { cells = Array.make (Stripe.capacity * Stripe.stride) 0 }

let[@inline] add t n =
  if Stripe.is_enabled () then begin
    let i = Stripe.index () * Stripe.stride in
    Array.unsafe_set t.cells i (Array.unsafe_get t.cells i + n)
  end

let[@inline] incr t = add t 1

let incr_get t =
  if Stripe.is_enabled () then begin
    let i = Stripe.index () * Stripe.stride in
    let v = Array.unsafe_get t.cells i + 1 in
    Array.unsafe_set t.cells i v;
    v
  end
  else -1

let read t =
  let total = ref 0 in
  for s = 0 to Stripe.capacity - 1 do
    total := !total + Array.unsafe_get t.cells (s * Stripe.stride)
  done;
  !total

let reset t = Array.fill t.cells 0 (Array.length t.cells) 0
