(* Striped Space-Saving top-k sketch.

   One private Space-Saving instance per stripe slot ([Rp_obs.Stripe]):
   while a domain is live it owns its slot exclusively, so recording is
   plain unsynchronized stores — no atomic read-modify-write anywhere on
   the hot path, the same discipline as [Rp_obs.Counter]. Readers merge
   all instances on demand (Space-Saving merges by summing counts and
   error bounds per key), so the combined error keeps the classic bound:
   for any reported entry, [count - err <= true <= count], and every key
   with true frequency above [N/k] (N = merged stream length) is
   present.

   The hot path is budgeted against the store's wait-free GET (the
   1.15x overhead gate), which forces two departures from the textbook
   layout:

   - the key index is a {e direct-mapped cache} (hash -> entry
     candidate, no probing, no tombstones): a collision merely
     overwrites the mapping, and an entry whose mapping was stolen is
     re-inserted as a {e duplicate} on its next occurrence. Duplicates
     are harmless: the merge sums counts and error bounds {e by key}
     (within a slot exactly as across slots), and the Space-Saving
     invariants — every occurrence increments some entry, eviction
     transfers a count into the newcomer's error bound — hold entry-
     wise, so the summed estimate keeps [count - err <= true <= count];

   - eviction picks its victim with a {e clock scan} against a cached
     lower bound on the minimum count instead of a full argmin: any
     entry at the cached minimum is a valid Space-Saving victim, in the
     churn regime almost every entry sits at that minimum so the hand
     stops within a step or two, and when a full revolution finds
     nothing the minimum has genuinely risen and one exact rescan
     re-anchors the bound (amortized O(1), worst case O(k)).

   Concurrent merge safety: all entry fields are single words, so a
   racing reader sees torn *pairs*, never torn values. Key replacement
   (the only multi-word update) is guarded by a per-entry generation
   stamp — odd while the entry is being rewritten, bumped even after —
   and the merger rejects entries whose stamp was odd or changed across
   its reads, so a count is never attributed to the key that replaced
   its owner. *)

type entry = { key : string; count : int; err : int; exemplar : int }

type slot = {
  keys : string array;
  hashes : int array;  (* cached key hash: entry compare is int-first *)
  counts : int array;
  errs : int array;  (* overestimation bound, set at (re)insertion *)
  exemplars : int array;  (* last sampled trace id touching the entry *)
  gens : int Atomic.t array;  (* even = stable, odd = mid-replacement *)
  mutable used : int;
  mutable total : int;  (* stream length seen by this slot *)
  idx : int array;  (* direct-mapped: hash -> entry + 1; 0 = empty *)
  idx_mask : int;
  mutable min_count : int;  (* cached lower bound on the minimum count *)
  mutable scan : int;  (* clock hand of the eviction scan *)
  mutable last : int;  (* most recently inserted entry, -1 = none *)
}

type t = { k : int; slots : slot option array }

let create ~k =
  if k <= 0 then invalid_arg "Rp_heat.Sketch.create: k <= 0";
  { k; slots = Array.make Rp_obs.Stripe.capacity None }

(* Index cells sized to 64k entries (32 KiB at k = 64): a hot key
   shares its cell pair with few cold keys, so its mapping survives
   nearly all of the traffic that matters to it. *)
let idx_size k =
  let rec pow2 n = if n >= 64 * k then n else pow2 (n * 2) in
  pow2 256

let make_slot k =
  let size = idx_size k in
  {
    keys = Array.make k "";
    hashes = Array.make k 0;
    counts = Array.make k 0;
    errs = Array.make k 0;
    exemplars = Array.make k 0;
    gens = Array.init k (fun _ -> Atomic.make 0);
    used = 0;
    total = 0;
    idx = Array.make size 0;
    idx_mask = size - 1;
    min_count = 0;
    scan = 0;
    last = -1;
  }

(* Word-at-a-time for the common protocol-sized key (two 8-byte loads
   + one mix), FNV for the short tail. A 64-bit load converted straight
   to an int stays unboxed in native code (no allocation); the
   conversion keeps the low 63 bits. A full-hash collision only costs
   the losing key its index cell — the string compare in [record] still
   separates entries — so mixing quality buys accuracy, not
   correctness. *)
let[@inline] word8 s i = Int64.to_int (String.get_int64_le s i)

let hash_key s =
  let len = String.length s in
  if len >= 8 then
    Rp_hashes.Hashfn.splitmix64
      (word8 s 0 lxor (word8 s (len - 8) * 0x9e3779b1) lxor len)
  else Rp_hashes.Hashfn.fnv1a_string s

(* A victim for Space-Saving eviction: the next entry (from the clock
   hand) whose count sits at the cached minimum. A fruitless full
   revolution means every count outgrew the cache; re-anchor with one
   exact argmin scan. *)
let pick_victim k s =
  let rec scan i tries =
    if tries = k then begin
      let m = ref 0 in
      for e = 1 to k - 1 do
        if Array.unsafe_get s.counts e < Array.unsafe_get s.counts !m then
          m := e
      done;
      s.min_count <- Array.unsafe_get s.counts !m;
      !m
    end
    else if Array.unsafe_get s.counts i <= s.min_count then i
    else scan (if i + 1 = k then 0 else i + 1) (tries + 1)
  in
  let m = scan s.scan 0 in
  s.scan <- (if m + 1 = k then 0 else m + 1);
  m

(* The entry behind index cell [c], or -1 when the cell is empty or
   holds a different key (hash-first compare). *)
let[@inline] cell_entry s c h key =
  let v = Array.unsafe_get s.idx c in
  if
    v > 0
    && Array.unsafe_get s.hashes (v - 1) = h
    && String.equal (Array.unsafe_get s.keys (v - 1)) key
  then v - 1
  else -1

(* Map entry [e] from its cell pair, stealing only a {e weak} cell —
   empty, or held by an entry still in the churn band (count within one
   of the cached minimum). A hot entry's mapping therefore can't be
   displaced by miss traffic; when both cells are strong the newcomer
   simply stays unmapped and re-enters as a duplicate next time, which
   the merge absorbs. *)
let place s cell0 e =
  let weak c =
    let v = Array.unsafe_get s.idx c in
    v = 0 || Array.unsafe_get s.counts (v - 1) <= s.min_count + 1
  in
  if weak cell0 then Array.unsafe_set s.idx cell0 (e + 1)
  else begin
    let c1 = cell0 lxor 1 in
    if weak c1 then Array.unsafe_set s.idx c1 (e + 1)
  end

let record t ?(exemplar = 0) key =
  if Rp_obs.Stripe.is_enabled () then begin
    let si = Rp_obs.Stripe.index () in
    let s =
      match Array.unsafe_get t.slots si with
      | Some s -> s
      | None ->
          let s = make_slot t.k in
          t.slots.(si) <- Some s;
          s
    in
    s.total <- s.total + 1;
    let h = hash_key key in
    let cell0 = h land s.idx_mask land lnot 1 in
    (* Third find candidate after the cell pair: the most recently
       inserted entry. An entry that lost the cell contest (both cells
       strong) is still found across a consecutive run of its key — the
       pattern where unmapped duplicates would otherwise pile up. *)
    let e =
      let e0 = cell_entry s cell0 h key in
      if e0 >= 0 then e0
      else
        let e1 = cell_entry s (cell0 lor 1) h key in
        if e1 >= 0 then e1
        else
          let l = s.last in
          if
            l >= 0
            && Array.unsafe_get s.hashes l = h
            && String.equal (Array.unsafe_get s.keys l) key
          then l
          else -1
    in
    if e >= 0 then begin
      Array.unsafe_set s.counts e (Array.unsafe_get s.counts e + 1);
      if exemplar <> 0 then Array.unsafe_set s.exemplars e exemplar
    end
    else if s.used < t.k then begin
      (* Room left: exact entry, no error. Publish [used] last so a
         concurrent merge never reads a half-written entry. *)
      let e = s.used in
      s.keys.(e) <- key;
      s.hashes.(e) <- h;
      s.counts.(e) <- 1;
      s.errs.(e) <- 0;
      s.exemplars.(e) <- exemplar;
      place s cell0 e;
      s.last <- e;
      s.used <- e + 1
    end
    else begin
      (* Space-Saving eviction: a min-count entry makes way and the
         newcomer inherits its count as the overestimation bound. The
         victim's stale index cell (if any) now points at a foreign key
         and fails the compare above — no removal needed. *)
      let m = pick_victim t.k s in
      Atomic.set s.gens.(m) (Atomic.get s.gens.(m) + 1);
      s.errs.(m) <- s.counts.(m);
      s.counts.(m) <- s.counts.(m) + 1;
      s.keys.(m) <- key;
      s.hashes.(m) <- h;
      s.exemplars.(m) <- exemplar;
      place s cell0 m;
      s.last <- m;
      Atomic.set s.gens.(m) (Atomic.get s.gens.(m) + 1)
    end
  end

(* Merge all slots: sum counts and error bounds per key (duplicate
   entries of one key fold together here), keep the most recent
   non-zero exemplar. Relaxed like [Counter.read] — may trail
   concurrent recording, exact once recorders have quiesced. *)
let merged t =
  let acc = Hashtbl.create 64 in
  Array.iter
    (function
      | None -> ()
      | Some s ->
          let used = min s.used t.k in
          for e = 0 to used - 1 do
            let g = Atomic.get s.gens.(e) in
            if g land 1 = 0 then begin
              let key = s.keys.(e) in
              let count = s.counts.(e) in
              let err = s.errs.(e) in
              let ex = s.exemplars.(e) in
              (* Re-check the stamp: a replacement racing our four reads
                 bumped it, and the entry is dropped for this merge. *)
              if Atomic.get s.gens.(e) = g && count > 0 then begin
                let c0, e0, x0 =
                  match Hashtbl.find_opt acc key with
                  | Some v -> v
                  | None -> (0, 0, 0)
                in
                Hashtbl.replace acc key
                  (c0 + count, e0 + err, if ex <> 0 then ex else x0)
              end
            end
          done)
    t.slots;
  acc

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let top ?n t =
  let l =
    Hashtbl.fold
      (fun key (count, err, exemplar) l -> { key; count; err; exemplar } :: l)
      (merged t) []
  in
  (* count descending, then key ascending: deterministic under ties *)
  let l =
    List.sort (fun a b -> compare (b.count, a.key) (a.count, b.key)) l
  in
  match n with None -> l | Some n -> take n l

let total t =
  Array.fold_left
    (fun acc -> function None -> acc | Some s -> acc + s.total)
    0 t.slots

(* Racy against concurrent recording (an in-flight record may survive),
   like [Histogram.reset]. [used = 0] unpublishes the entries; the index
   is cleared so stale cells cannot resurrect them. *)
let reset t =
  Array.iter
    (function
      | None -> ()
      | Some s ->
          s.used <- 0;
          s.total <- 0;
          s.min_count <- 0;
          s.scan <- 0;
          s.last <- -1;
          Array.fill s.idx 0 (Array.length s.idx) 0;
          Array.fill s.counts 0 (Array.length s.counts) 0)
    t.slots
