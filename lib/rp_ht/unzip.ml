open Rp_list

(* Last node of the run starting at [n]: the nodes from [n] on whose
   destination is [d]. *)
let rec run_last ~dest d n =
  match n with
  | Node { next = Node _ as m; _ } when dest m = d -> run_last ~dest d m
  | _ -> n

let step ~dest = function
  | Null -> Null
  | Node _ as p -> (
      let last_p = run_last ~dest (dest p) p in
      match next last_p with
      | Null -> Null
      | Node _ as q ->
          (* Splice q's run out of p's chain. Readers of p's bucket skip
             it; readers of q's bucket reach q via their own bucket head
             and are unaffected. *)
          set_next last_p (next (run_last ~dest (dest q) q));
          q)

let rec chain_is_precise ~dest = function
  | Null -> true
  | Node n as l -> (
      match n.next with
      | Null -> true
      | Node _ as m -> dest m = dest l && chain_is_precise ~dest m)
