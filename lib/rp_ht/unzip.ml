open Rp_list

type ('k, 'v) state = Done | At of ('k, 'v) node

let start = function Null -> Done | Node _ as n -> At n
let is_done = function Done -> true | At _ -> false

(* Last node of the run starting at [n], plus the first node of the
   following run (which has the other destination), or [Null]. *)
let rec run_end ~dest n =
  match next n with
  | Null -> (n, Null)
  | Node _ as m -> if dest m = dest n then run_end ~dest m else (n, m)

let step ~dest = function
  | Done -> Done
  | At p -> (
      let last_p, crossing = run_end ~dest p in
      match crossing with
      | Null -> Done
      | Node _ as q ->
          let _last_q, after = run_end ~dest q in
          (* Splice q's run out of p's chain. Readers of p's bucket skip
             it; readers of q's bucket reach q via their own bucket head
             and are unaffected. *)
          set_next last_p after;
          At q)

let rec chain_is_precise ~dest = function
  | Null -> true
  | Node n as l -> (
      match n.next with
      | Null -> true
      | Node _ as m -> dest m = dest l && chain_is_precise ~dest m)
