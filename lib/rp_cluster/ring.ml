(* Ketama-style consistent-hash ring (libmemcached's continuum shape).

   Each member contributes [points_per_weight * weight] points on a
   32-bit circle. Points come from MD5 (stdlib [Digest]) over
   "host:port-<replica>", four points per digest — the same trick
   libmemcached uses, so one hash call seeds four continuum entries.
   Lookup hashes the key the same way (first four digest bytes) and
   binary-searches for the first point clockwise.

   The ring itself is immutable; liveness is the caller's business. The
   [avoid] predicate lets a client skip ejected members at lookup time
   without rebuilding the continuum — exactly how ketama keeps the
   remap small: keys owned by a dead member slide to the next live
   point, everyone else's assignment is untouched. *)

type member = { host : string; port : int; weight : int }

type t = {
  members : member array;
  (* sorted by point; the payload is the member's index in [members] *)
  points : (int * int) array;
}

let default_points_per_weight = 100

(* Four u32 points from one MD5 digest, libmemcached-style. *)
let digest_points key =
  let d = Digest.string key in
  let u32 o =
    ((Char.code d.[3 + (o * 4)] land 0xff) lsl 24)
    lor ((Char.code d.[2 + (o * 4)] land 0xff) lsl 16)
    lor ((Char.code d.[1 + (o * 4)] land 0xff) lsl 8)
    lor (Char.code d.[o * 4] land 0xff)
  in
  (u32 0, u32 1, u32 2, u32 3)

let hash_key key =
  let p, _, _, _ = digest_points key in
  p

let member_label m = Printf.sprintf "%s:%d" m.host m.port

let create ?(points_per_weight = default_points_per_weight) members =
  let members = Array.of_list members in
  let pts = ref [] in
  Array.iteri
    (fun idx m ->
      let w = max 1 m.weight in
      (* Four points per digest: replicas = total/4 rounded up so a
         weight-1 member still lands ~points_per_weight entries. *)
      let replicas = (points_per_weight * w + 3) / 4 in
      let label = member_label m in
      for r = 0 to replicas - 1 do
        let p0, p1, p2, p3 = digest_points (Printf.sprintf "%s-%d" label r) in
        pts := (p0, idx) :: (p1, idx) :: (p2, idx) :: (p3, idx) :: !pts
      done)
    members;
  let points = Array.of_list !pts in
  Array.sort compare points;
  { members; points }

let members t = Array.to_list t.members
let member t i = t.members.(i)
let size t = Array.length t.members
let points t = Array.length t.points

(* Index of the first continuum point with value >= h, wrapping. *)
let first_at t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo >= n then 0 else !lo

let lookup ?(avoid = fun _ -> false) t key =
  let n = Array.length t.points in
  if n = 0 then None
  else begin
    let start = first_at t (hash_key key) in
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < n do
      let _, idx = t.points.((start + !i) mod n) in
      if not (avoid idx) then found := Some idx;
      incr i
    done;
    !found
  end
