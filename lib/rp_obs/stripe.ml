(* Per-domain stripe slots, shared by every striped instrument in the
   process.

   Same idiom as Rcu's reader-slot registry: a domain claims the lowest
   free slot on first use (cached in domain-local state) and releases it
   from a [Domain.at_exit] hook, so slot indices stay dense and a live
   domain owns its slot exclusively. Exclusive ownership is what lets
   counters and histograms use plain unsynchronized stores on the hot
   path: no other domain ever writes the same cell, so no increment can
   be lost. If more than [capacity] domains are ever live at once (beyond
   what the OCaml runtime supports today), extra domains fall back to
   round-robin shared slots and instruments degrade to approximate. *)

let capacity = 128
let mask = capacity - 1

(* Words per stripe cell: 8 * 8 bytes = one 64-byte cache line, so two
   domains bumping adjacent slots of the same counter never share a line. *)
let stride = 8

(* Global kill switch: instruments become no-ops when cleared. One atomic
   load on the hot path; used by the overhead-guard test to price the
   instrumentation itself. *)
let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let[@inline] is_enabled () = Atomic.get enabled

let in_use = Array.make capacity false
let mutex = Mutex.create ()

(* Round-robin fallback when the registry is full. *)
let overflow = Atomic.make 0

let release i =
  Mutex.lock mutex;
  in_use.(i) <- false;
  Mutex.unlock mutex

let acquire () =
  Mutex.lock mutex;
  let found = ref (-1) in
  (try
     for i = 0 to capacity - 1 do
       if not in_use.(i) then begin
         in_use.(i) <- true;
         found := i;
         raise Exit
       end
     done
   with Exit -> ());
  Mutex.unlock mutex;
  match !found with
  | -1 -> Atomic.fetch_and_add overflow 1 land mask
  | i ->
      Domain.at_exit (fun () -> release i);
      i

let dls : int Domain.DLS.key = Domain.DLS.new_key acquire

(* Hot-path read of the claimed slot. [Domain.DLS.get] costs two
   non-inlined calls per lookup (no flambda); at one increment per table
   lookup that is most of the instrumentation budget. The domain-local
   storage array itself is reachable in two instructions through the
   [%dls_get] primitive — the same one the stdlib is built on — so read
   it directly: an initialized slot holds an immediate int, anything else
   (the stdlib's block-valued "uninitialized" sentinel, or an array not
   yet grown to cover the key) falls back to the real [Domain.DLS.get],
   which claims the slot via [acquire]. The key index is the first field
   of the stdlib's key representation (a [(int, init)] pair in the pinned
   OCaml 5.1 stdlib — revisit if the compiler moves). *)
external dls_state : unit -> Obj.t array = "%dls_get"

let dls_index : int = fst (Obj.magic dls : int * Obj.t)

let[@inline] index () =
  let st = dls_state () in
  if dls_index < Array.length st then begin
    let v = Array.unsafe_get st dls_index in
    if Obj.is_int v then (Obj.obj v : int) else Domain.DLS.get dls
  end
  else Domain.DLS.get dls

