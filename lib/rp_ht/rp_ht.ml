open Rp_list

(* A bucket slot holds the chain's first node directly. Slots and node
   [next] fields are plain mutable words: a writer's store into either is
   [caml_modify], a release store, and readers' loads are dependency
   ordered (see {!Rp_list.link}). The table record itself is published
   through the [current] atomic. *)
type ('k, 'v) table = { size : int; buckets : ('k, 'v) link array }

type resize_stats = {
  expands : int;
  shrinks : int;
  unzip_passes : int;
  unzip_splices : int;
  recoveries : int;
  lazy_splits : int;
}

(* An expansion in progress: the doubled bucket array is already
   published (readers are fine — buckets are imprecise but complete);
   each chain splits lazily on first writer touch, or eagerly under the
   all-stripes protocol. [ps_sync_done] witnesses the post-publish grace
   period: no chain may be spliced before readers that entered through
   the pre-expansion bucket array have drained, because for them the
   zipped chain is the only path to keys of both child buckets.

   The split state is flat, one slot per parent bucket [i]: its unzip
   position ([Null] once precise) and a busy byte. Parent [i] splits into
   new buckets [i] and [i + old_size]; both children map to the same
   stripe (stripe count never exceeds [min_size]), so the stripe lock
   covering a key also covers its slot. A busy byte marks a splicer that
   died between a splice and its closing grace period — the next toucher
   re-establishes the grace period before splicing further. *)
type ('k, 'v) pending_split = {
  ps_new_size : int;
  ps_dest : ('k, 'v) node -> int;  (* a node's bucket at [ps_new_size] *)
  ps_pos : ('k, 'v) link array;  (* length [ps_new_size / 2] *)
  ps_busy : Bytes.t;  (* same length; '\001' = busy *)
  ps_remaining : int Atomic.t;  (* positions not yet [Null] *)
  ps_sync_done : bool Atomic.t;
}

type ('k, 'v) t = {
  rcu : Rcu.t;
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  current : ('k, 'v) table Atomic.t;
  (* Writer locks, striped by hash: stripe = hash land (nstripes - 1).
     nstripes is a power of two <= min_size, so a bucket index determines
     its stripe at every table size and sibling buckets share a stripe.
     Cross-stripe operations (explicit resize, shrink, auto-resize,
     complete_splits, validate) take every stripe in ascending order. *)
  stripes : Mutex.t array;
  stripe_mask : int;
  splitting : ('k, 'v) pending_split option Atomic.t;
  count : int Atomic.t;
  min_size : int;
  max_size : int;
  auto_resize : bool;
  expands : int Atomic.t;
  shrinks : int Atomic.t;
  unzip_passes : int Atomic.t;
  unzip_splices : int Atomic.t;
  recoveries : int Atomic.t;
  lazy_splits : int Atomic.t;
  (* striped instruments: the lookup counter sits on the wait-free read
     path, so it must never be a shared atomic RMW *)
  obs_lookups : Rp_obs.Counter.t;
  obs_inserts : Rp_obs.Counter.t;
  obs_deletes : Rp_obs.Counter.t;
  obs_stripe_acq : Rp_obs.Counter.t;
  obs_stripe_contended : Rp_obs.Counter.t;
  (* Per-stripe heatmap cells behind the aggregate counters above, so
     the heat plane can show WHICH stripes contend, not just how much.
     Acquisition cells are plain ints padded a cache line apart — only
     the stripe's lock holder writes its cell. Contended cells are
     atomics: the increment happens while the lock is still held by
     someone else, so racers can collide on it. *)
  stripe_acq_cells : int array;  (* index: stripe * stripe_cell_stride *)
  stripe_cont_cells : int Atomic.t array;
  resize_hist : Rp_obs.Histogram.t;  (* per expand/shrink duration, ns *)
  (* Resize memory (DESIGN.md §15.2 "Resize memory discipline"): the last
     retired bucket array, reusable by the next resize to its size once
     [spare_ready], and the last expansion's split-state arrays. Touched
     under every stripe, or under one stripe by the splitter that ends an
     expansion's post-publish grace period (the spare) or completes its
     last split (the split-state arrays). *)
  mutable spare : ('k, 'v) link array;
  mutable spare_ready : bool;
  mutable spare_pos : ('k, 'v) link array;
  mutable spare_busy : Bytes.t;
}

(* 8 words = one 64-byte line between adjacent stripes' cells. *)
let stripe_cell_stride = 8

let make_table size = { size; buckets = Array.make size Null }

let create ?rcu ?(initial_size = 8) ?(min_size = 4) ?(max_size = 1 lsl 22)
    ?(auto_resize = true) ?stripes ~hash ~equal () =
  let rcu = match rcu with Some r -> r | None -> Rcu.create () in
  let min_size = Rp_hashes.Size.next_power_of_two (max 1 min_size) in
  (* Default stripe count: 8, but never more than min_size (the
     bucket-to-stripe mapping must be stable across resizes). An explicit
     ~stripes instead raises min_size so the invariant holds. *)
  let nstripes =
    match stripes with
    | Some s -> Rp_hashes.Size.next_power_of_two (max 1 s)
    | None -> min 8 min_size
  in
  let min_size = max min_size nstripes in
  let max_size = Rp_hashes.Size.next_power_of_two (max min_size max_size) in
  let initial_size =
    min max_size (max min_size (Rp_hashes.Size.next_power_of_two initial_size))
  in
  {
    rcu;
    hash;
    equal;
    current = Atomic.make (make_table initial_size);
    stripes = Array.init nstripes (fun _ -> Mutex.create ());
    stripe_mask = nstripes - 1;
    splitting = Atomic.make None;
    count = Atomic.make 0;
    min_size;
    max_size;
    auto_resize;
    expands = Atomic.make 0;
    shrinks = Atomic.make 0;
    unzip_passes = Atomic.make 0;
    unzip_splices = Atomic.make 0;
    recoveries = Atomic.make 0;
    lazy_splits = Atomic.make 0;
    obs_lookups = Rp_obs.Counter.create ();
    obs_inserts = Rp_obs.Counter.create ();
    obs_deletes = Rp_obs.Counter.create ();
    obs_stripe_acq = Rp_obs.Counter.create ();
    obs_stripe_contended = Rp_obs.Counter.create ();
    stripe_acq_cells = Array.make (nstripes * stripe_cell_stride) 0;
    stripe_cont_cells = Array.init nstripes (fun _ -> Atomic.make 0);
    resize_hist = Rp_obs.Histogram.create ();
    spare = [||];
    spare_ready = false;
    spare_pos = [||];
    spare_busy = Bytes.empty;
  }

let rcu t = t.rcu
let stripe_count t = Array.length t.stripes

(* --- read side --- *)

let bucket_index table hash = Rp_hashes.Size.bucket_of_hash ~hash ~size:table.size

(* Hot path: no closures, no helper indirection — one plain load per chain
   hop (the node block holds key, hash, value and next), exactly the cost
   structure the paper measures for RP readers. [Null] on a miss. *)
let rec search_chain equal hash k = function
  | Null -> Null
  | Node n as l ->
      if n.hash = hash && equal n.key k then l else search_chain equal hash k n.next

let find_node t ~hash k table =
  search_chain t.equal hash k (Array.unsafe_get table.buckets (bucket_index table hash))

(* Flight-recorder span names. Lookup and insert events are detail-tier:
   they record only while the emitting domain is inside a head-sampled
   request, so the unsampled hot path pays one atomic load and a branch. *)
let k_lookup = Rp_trace.intern "rp_ht.lookup"
let k_insert = Rp_trace.intern "rp_ht.insert"
let k_expand = Rp_trace.intern "rp_ht.expand"
let k_shrink = Rp_trace.intern "rp_ht.shrink"
let k_unzip = Rp_trace.intern "rp_ht.unzip_pass"
let k_recovery = Rp_trace.intern "rp_ht.recovery"
let k_lazy_split = Rp_trace.intern "rp_ht.lazy_split"

(* A lookup is an instant stamped at its start ([arg] 1 on a hit): the
   flattened chain walk is short enough that a second cycle-counter read
   at its end — which waits for the walk's loads — would cost more than
   the walk. Time spent in lookups shows on the enclosing span (the
   store's read section). *)
let find_opt_hashed t ~hash k =
  Rp_obs.Counter.incr t.obs_lookups;
  let stamp = Rp_trace.stamp_sampled () in
  Rcu.read_lock_current t.rcu;
  match find_node t ~hash k (Rcu.dereference t.current) with
  | Node n ->
      let v = n.value in
      Rcu.read_unlock_current t.rcu;
      Rp_trace.instant_at_sampled ~arg:1 k_lookup stamp;
      Some v
  | Null ->
      Rcu.read_unlock_current t.rcu;
      Rp_trace.instant_at_sampled k_lookup stamp;
      None
  | exception e ->
      (* only a user-supplied [equal] can raise *)
      Rcu.read_unlock_current t.rcu;
      Rp_trace.instant_at_sampled k_lookup stamp;
      raise e

let find t k = find_opt_hashed t ~hash:(t.hash k) k
let mem t k = Option.is_some (find t k)

(* Key slices against stored string keys, 8 bytes at a time: a key of
   [len] >= 8 bytes is compared in whole words, the last one overlapping
   its predecessor, and a shorter one byte by byte. The loads are plain
   unboxed 64-bit reads; no C call is made. *)
external string_get64 : string -> int -> int64 = "%caml_string_get64u"
external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let rec words_equal key buf off len i =
  if i + 8 >= len then
    Int64.equal (string_get64 key (len - 8)) (bytes_get64 buf (off + len - 8))
  else
    Int64.equal (string_get64 key i) (bytes_get64 buf (off + i))
    && words_equal key buf off len (i + 8)

let rec bytes_equal key buf off len i =
  i >= len
  || (String.unsafe_get key i = Bytes.unsafe_get buf (off + i)
     && bytes_equal key buf off len (i + 1))

let slice_equal key buf off len =
  String.length key = len
  && if len >= 8 then words_equal key buf off len 0 else bytes_equal key buf off len 0

let rec search_slice hash buf off len = function
  | Null -> Null
  | Node n as l ->
      if n.hash = hash && slice_equal n.key buf off len then l
      else search_slice hash buf off len n.next

(* The first two stages of a staged batch over keys [first, last]:
   every key's bucket slot, then every slot's first node. *)
let prefetch_heads buckets mask hashes first last =
  for i = first to last do
    prefetch buckets ((Array.unsafe_get hashes i land mask) * (Sys.word_size / 8))
  done;
  for i = first to last do
    let head = Array.unsafe_get buckets (Array.unsafe_get hashes i land mask) in
    (* the node's fields span [0, 40): one hint per line it may touch *)
    prefetch head 0;
    prefetch head 32
  done

(* A batch's lookups in stages, for a caller already inside a read
   section. Each stage issues, for every key, a prefetch of the load the
   next stage depends on: every key's bucket slot, then every slot's
   first node, then — where that node's hash matches — its key string;
   the last stage walks each chain, reading what the earlier stages
   brought in. The hints of one stage are independent of each other, so
   the whole batch's misses are in flight at once where a key-at-a-time
   walk waits out each chain of dependent misses in turn (group
   prefetching). A prefetch is only a hint: it never faults and changes
   no memory, and every block hinted at is reachable from the table the
   section dereferenced, so the section pins it. Readers write no shared
   memory, so running a section's lookups in any order is linearizable.
   The stages before the walk re-read each bucket slot (a cache hit by
   then) instead of staging the head, so [found] is written once per
   key, and nothing is allocated. A lone key has no other miss to
   overlap its own with, so it goes straight to the walk. *)
let find_batch_hashed t ~buf ~offs ~lens ~hashes ~first found n =
  if
    first < 0 || n < 0
    || first + n > Array.length hashes
    || first + n > Array.length offs
    || first + n > Array.length lens
    || n > Array.length found
  then invalid_arg "Rp_ht.find_batch_hashed: a range exceeds an array";
  (* The compares read the slices unchecked. *)
  for i = first to first + n - 1 do
    let off = Array.unsafe_get offs i and len = Array.unsafe_get lens i in
    if off < 0 || len < 0 || off > Bytes.length buf - len then
      invalid_arg "Rp_ht.find_batch_hashed: a slice exceeds the buffer"
  done;
  Rp_obs.Counter.add t.obs_lookups n;
  let stamp = Rp_trace.stamp_sampled () in
  let table = Rcu.dereference t.current in
  let buckets = table.buckets in
  let mask = table.size - 1 in
  let last = first + n - 1 in
  if n > 1 then begin
    prefetch_heads buckets mask hashes first last;
    for i = first to last do
      let hash = Array.unsafe_get hashes i in
      match Array.unsafe_get buckets (hash land mask) with
      | Node nd when nd.hash = hash -> prefetch nd.key (-8)
      | Node _ | Null -> ()
    done
  end;
  for i = first to last do
    let hash = Array.unsafe_get hashes i in
    Array.unsafe_set found (i - first)
      (search_slice hash buf (Array.unsafe_get offs i) (Array.unsafe_get lens i)
         (Array.unsafe_get buckets (hash land mask)))
  done;
  if stamp >= 0 then
    for j = 0 to n - 1 do
      Rp_trace.instant_at_sampled
        ~arg:(match Array.unsafe_get found j with Node _ -> 1 | Null -> 0)
        k_lookup stamp
    done

(* Hints only, for a batch about to be looked up or updated one key at
   a time: the stages of [find_batch_hashed] before its walk
   ([prefetch_heads], then each matching first node's key) carried one
   node further, then one stage that hands each key's value to [hint],
   which prefetches what the caller will read through it. A key's node is the
   first of its chain's first two nodes whose hash matches (most chains
   hold one or two nodes: auto-resize keeps the load factor at most
   3/4); its key string and value are asked for as soon as it is known.
   No slice is compared and nothing is recorded: the later lookups and
   updates walk their chains again, from cache, so a stale hint costs a
   wasted line and never a wrong result. One read section covers the
   stages, so every block hinted at is pinned while it is. *)
let prefetch_node_fields key value =
  prefetch key (-8);
  (* a value's first 48 bytes: at most two lines *)
  prefetch value 0;
  prefetch value 40

let prefetch_batch_hashed t ~hashes ~first n ~hint =
  if first < 0 || n < 0 || first + n > Array.length hashes then
    invalid_arg "Rp_ht.prefetch_batch_hashed: the range exceeds the array";
  Rcu.read_lock_current t.rcu;
  let table = Rcu.dereference t.current in
  let buckets = table.buckets in
  let mask = table.size - 1 in
  let last = first + n - 1 in
  (* A pending expansion's split-state slot of each key: a writer of the
     key loads it first ([ensure_bucket_split]), and the array is half
     the new table, so the slot is seldom in cache. *)
  (match Atomic.get t.splitting with
  | None -> ()
  | Some ps ->
      let cells = Array.length ps.ps_pos - 1 in
      for i = first to last do
        prefetch ps.ps_pos ((Array.unsafe_get hashes i land cells) * (Sys.word_size / 8))
      done);
  prefetch_heads buckets mask hashes first last;
  for i = first to last do
    let hash = Array.unsafe_get hashes i in
    match Array.unsafe_get buckets (hash land mask) with
    | Node nd when nd.hash = hash -> prefetch_node_fields nd.key nd.value
    | Node nd ->
        prefetch nd.next 0;
        prefetch nd.next 32
    | Null -> ()
  done;
  for i = first to last do
    let hash = Array.unsafe_get hashes i in
    match Array.unsafe_get buckets (hash land mask) with
    | Node { hash = h; next = Node nd; _ } when h <> hash && nd.hash = hash ->
        prefetch_node_fields nd.key nd.value
    | Node _ | Null -> ()
  done;
  match
    for i = first to last do
      let hash = Array.unsafe_get hashes i in
      match Array.unsafe_get buckets (hash land mask) with
      | Node nd when nd.hash = hash -> hint nd.value
      | Node { next = Node nd; _ } when nd.hash = hash -> hint nd.value
      | Node _ | Null -> ()
    done
  with
  | () -> Rcu.read_unlock_current t.rcu
  | exception e ->
      Rcu.read_unlock_current t.rcu;
      raise e

(* Apply [f] to the bindings whose home is bucket [b], skipping nodes
   merely passing through an imprecise bucket. *)
let rec iter_home ~size ~b f = function
  | Null -> ()
  | Node n ->
      if Rp_hashes.Size.bucket_of_hash ~hash:n.hash ~size = b then f n.key n.value;
      iter_home ~size ~b f n.next

let iter t ~f =
  Rcu.with_read_current t.rcu (fun () ->
      let table = Rcu.dereference t.current in
      Array.iteri (fun b link -> iter_home ~size:table.size ~b f link) table.buckets)

(* Bounded read sections: the table's bucket index for a key depends only
   on (hash, size), so a walk that has covered [0, b) at size s misses
   nothing at any later size s' >= s — expansion sends keys from bucket i
   only to i or i + s (both >= i; re-emitting i + s for visited i is the
   documented duplicate). Only a size *drop* below a size we already
   walked at can relocate unvisited keys behind the cursor, and we detect
   that on the table we actually dereference, inside the read section —
   no separate counter to race against. This argument is unchanged by
   lazy splitting: a pending split only leaves buckets imprecise (the
   per-bucket home filter already discards pass-through nodes). *)
let iter_batched ?(batch = 64) t ~f =
  let batch = max 1 batch in
  let restarts = ref 0 in
  let finished = ref false in
  let b = ref 0 in
  let max_size = ref 0 in
  while not !finished do
    Rcu.with_read_current t.rcu (fun () ->
        let table = Rcu.dereference t.current in
        if table.size < !max_size then begin
          incr restarts;
          b := 0;
          max_size := table.size
        end
        else begin
          max_size := table.size;
          let stop = min table.size (!b + batch) in
          for i = !b to stop - 1 do
            iter_home ~size:table.size ~b:i f table.buckets.(i)
          done;
          b := stop;
          if stop >= table.size then finished := true
        end)
  done;
  !restarts

let fold t ~init ~f =
  let acc = ref init in
  iter t ~f:(fun k v -> acc := f !acc k v);
  !acc

let to_list t = fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc)

(* --- stripe locking --- *)

let stripe_of_hash t hash = hash land t.stripe_mask

(* A contended stripe's holder may be inside wait-for-readers (a
   splice's grace period): [Rcu.mutex_lock] keeps a QSBR waiter from
   stalling it. *)
let lock_stripe t i =
  let m = t.stripes.(i) in
  Rp_fault.point "rp_ht.stripe.lock";
  (if Mutex.try_lock m then Rp_obs.Counter.incr t.obs_stripe_acq
   else begin
     Rp_obs.Counter.incr t.obs_stripe_contended;
     Atomic.incr t.stripe_cont_cells.(i);
     Rcu.mutex_lock t.rcu m;
     Rp_obs.Counter.incr t.obs_stripe_acq
   end);
  (* Held now: the acquisition heatmap cell is lock-protected state. *)
  let c = i * stripe_cell_stride in
  Array.unsafe_set t.stripe_acq_cells c (Array.unsafe_get t.stripe_acq_cells c + 1)

(* Ascending order — compatible with move's two-stripe min/max order, so
   single-stripe writers, movers, and all-stripes owners never deadlock.
   The failpoint in lock_stripe can raise mid-acquisition; back out. *)
let lock_all_stripes t =
  let i = ref 0 in
  try
    while !i < Array.length t.stripes do
      lock_stripe t !i;
      incr i
    done
  with e ->
    for j = !i - 1 downto 0 do
      Mutex.unlock t.stripes.(j)
    done;
    raise e

let unlock_all_stripes t = Array.iter Mutex.unlock t.stripes

let under_all_stripes t f =
  lock_all_stripes t;
  match f () with
  | v ->
      unlock_all_stripes t;
      v
  | exception e ->
      unlock_all_stripes t;
      raise e

(* --- resize memory --- *)

(* A bucket array of [n] slots for the table about to be published: the
   spare, when it has that size and its grace period is behind it, else
   a fresh one. The caller writes every slot before publishing. *)
let take_buckets t n =
  if t.spare_ready && Array.length t.spare = n then begin
    let a = t.spare in
    t.spare <- [||];
    t.spare_ready <- false;
    a
  end
  else Array.make n Null

(* [old] was just unpublished. Readers may still walk it until a grace
   period that begins after this point ends; see [spare_quiesced]. *)
let retire t old =
  t.spare <- old;
  t.spare_ready <- false

(* Called only after a grace period the resize itself waited out, begun
   after the spare's retirement — the shrink's own, or an expansion's
   post-publish one. Never credited from a counter, so a grace period
   already running at the retirement (say a [remove_sync]'s) cannot make
   the spare reusable. No reader can reach the spare any more: drop the
   chain heads it holds, so it pins no node removed later, and let the
   next resize of its size reuse it. *)
let spare_quiesced t =
  Array.fill t.spare 0 (Array.length t.spare) Null;
  t.spare_ready <- true

(* --- the split engine (lazy per-bucket rehash) --- *)

let dest_for size n = Rp_hashes.Size.bucket_of_hash ~hash:(hash n) ~size

(* The post-publish grace period, deferred from expand to the first
   splicer. Two stripe holders may race here; both waiting is benign,
   and only the first to finish frees the parent array: a lazy split can
   stay pending for a long time, and the array must not pin what is
   removed meanwhile. *)
let publish_synced t ps =
  if Atomic.compare_and_set ps.ps_sync_done false true then spare_quiesced t

let ensure_publish_synced t ps =
  if not (Atomic.get ps.ps_sync_done) then begin
    Rcu.synchronize t.rcu;
    publish_synced t ps
  end

let note_recovery t ~new_size =
  Atomic.incr t.recoveries;
  Rp_trace.instant ~arg:new_size k_recovery

let cell_busy ps i = Bytes.get ps.ps_busy i <> '\000'
let set_cell_busy ps i b = Bytes.set ps.ps_busy i (if b then '\001' else '\000')

(* Splice chain [i] to precision: one grace period between consecutive
   splices (readers that crossed a splice point before it moved must
   drain before the chain changes again); the step that finds no crossing
   run publishes nothing and needs no trailing grace period. Caller holds
   the chain's stripe and has dealt with ps_sync_done / the busy byte. *)
let rec drive_cell t ps i =
  match ps.ps_pos.(i) with
  | Null -> ()
  | Node _ as p -> (
      Rp_fault.point "rp_ht.unzip.splice";
      let next = Unzip.step ~dest:ps.ps_dest p in
      ps.ps_pos.(i) <- next;
      match next with
      | Null -> ()
      | Node _ ->
          set_cell_busy ps i true;
          Atomic.incr t.unzip_splices;
          let span = Rp_trace.span_begin ~arg:ps.ps_new_size k_unzip in
          Rcu.synchronize t.rcu;
          Rp_trace.span_end ~arg:ps.ps_new_size k_unzip span;
          set_cell_busy ps i false;
          Atomic.incr t.unzip_passes;
          drive_cell t ps i)

(* Caller holds the chain's stripe; an expansion needs every stripe, so
   nobody can install a new pending split between our decrement and the
   clear. The last chain done ends the expansion: no splitter reads its
   split state again. *)
let note_cell_done t ps =
  if Atomic.fetch_and_add ps.ps_remaining (-1) = 1 then begin
    Atomic.set t.splitting None;
    t.spare_pos <- ps.ps_pos;
    t.spare_busy <- ps.ps_busy
  end

(* First-writer-touch split: the lazy rehash step. Stripe of [hash]
   held. After this returns, the bucket chains for [hash] are precise. *)
let ensure_bucket_split t ~hash =
  match Atomic.get t.splitting with
  | None -> ()
  | Some ps -> (
      let i = hash land (Array.length ps.ps_pos - 1) in
      match ps.ps_pos.(i) with
      | Null -> ()
      | Node _ ->
          Rp_fault.point "rp_ht.split.lazy";
          ensure_publish_synced t ps;
          if cell_busy ps i then begin
            (* A splicer died between a splice and its grace period:
               re-establish it before touching the chain again. *)
            Rcu.synchronize t.rcu;
            set_cell_busy ps i false;
            note_recovery t ~new_size:ps.ps_new_size
          end;
          Atomic.incr t.lazy_splits;
          let span = Rp_trace.span_begin ~arg:ps.ps_new_size k_lazy_split in
          drive_cell t ps i;
          Rp_trace.span_end ~arg:ps.ps_new_size k_lazy_split span;
          note_cell_done t ps)

(* Complete every remaining chain. All stripes held. One splice per live
   chain per pass, one grace period per pass — the eager path keeps the
   paper's amortized cost structure instead of paying a grace period per
   splice. *)
let complete_splits_locked t =
  match Atomic.get t.splitting with
  | None -> ()
  | Some ps ->
      let new_size = ps.ps_new_size in
      let cells = Array.length ps.ps_pos in
      let interrupted = Bytes.contains ps.ps_busy '\001' in
      if interrupted || not (Atomic.get ps.ps_sync_done) then begin
        Rcu.synchronize t.rcu;
        publish_synced t ps;
        Bytes.fill ps.ps_busy 0 cells '\000';
        if interrupted then note_recovery t ~new_size
      end;
      let live = ref true in
      while !live do
        live := false;
        for i = 0 to cells - 1 do
          match ps.ps_pos.(i) with
          | Null -> ()
          | Node _ as p -> (
              Rp_fault.point "rp_ht.unzip.splice";
              let next = Unzip.step ~dest:ps.ps_dest p in
              ps.ps_pos.(i) <- next;
              match next with
              | Null -> note_cell_done t ps
              | Node _ ->
                  set_cell_busy ps i true;
                  Atomic.incr t.unzip_splices;
                  live := true)
        done;
        if !live then begin
          (* One grace period per pass protects readers that crossed a
             splice point before it moved. *)
          let pass_span = Rp_trace.span_begin ~arg:new_size k_unzip in
          Rcu.synchronize t.rcu;
          Rp_trace.span_end ~arg:new_size k_unzip pass_span;
          Atomic.incr t.unzip_passes;
          Bytes.fill ps.ps_busy 0 cells '\000'
        end
      done

(* --- resize: shrink --- *)

(* Last node of a non-empty chain. *)
let rec chain_tail = function
  | Node { next = Node _ as l; _ } -> chain_tail l
  | last -> last

(* Halve the bucket count: link sibling chains end-to-end, publish the new
   bucket array, wait for readers once. All stripes held, and no split
   may be pending: zipped sibling chains share physical tails, so
   concatenating them would create cycles — callers complete splits
   first.

   Crash safety: once the half-size array is published its chains are
   already precise (bucket i holds exactly old buckets i and i+new_size),
   so a failure after publication loses only the final grace period —
   which leaves the retired array unready, never reused early. No
   poisoning needed. *)
let shrink_locked t =
  Rp_fault.point "rp_ht.shrink.pre";
  let started = Unix.gettimeofday () in
  let shrink_span = Rp_trace.span_begin k_shrink in
  let old = Atomic.get t.current in
  let new_size = old.size / 2 in
  let buckets = take_buckets t new_size in
  for i = 0 to new_size - 1 do
    let low = old.buckets.(i) in
    let high = old.buckets.(i + new_size) in
    buckets.(i) <-
      (match chain_tail low with
      | Null -> high
      | Node tail ->
          (* Readers of old bucket [i] now continue into the sibling
             chain: an imprecise superset, which lookups tolerate. *)
          tail.next <- high;
          low)
  done;
  Rcu.publish t.current { size = new_size; buckets };
  retire t old.buckets;
  Rcu.synchronize t.rcu;
  spare_quiesced t;
  Atomic.incr t.shrinks;
  Rp_trace.span_end ~arg:new_size k_shrink shrink_span;
  Rp_obs.Histogram.observe_span t.resize_hist ~start:started
    ~stop:(Unix.gettimeofday ())

(* --- resize: expand --- *)

(* Point child buckets [lo] and [hi] of a doubled array at the first node
   of the parent chain that belongs to each: one walk, which ends once
   both are found. *)
let rec split_heads buckets ~size ~lo ~hi lo_head hi_head = function
  | Node n as l when lo_head == Null || hi_head == Null ->
      if Rp_hashes.Size.bucket_of_hash ~hash:n.hash ~size = lo then
        split_heads buckets ~size ~lo ~hi
          (if lo_head == Null then l else lo_head)
          hi_head n.next
      else
        split_heads buckets ~size ~lo ~hi lo_head
          (if hi_head == Null then l else hi_head)
          n.next
  | _ ->
      buckets.(lo) <- lo_head;
      buckets.(hi) <- hi_head

(* Double the bucket count. All stripes held; no split pending. The
   doubled array is published immediately — each new bucket points at the
   first node of its parent chain that belongs to it, so buckets are
   imprecise (zipped) but complete — and each parent chain's unzip
   position is parked on the table. Chains then split lazily, on first
   writer touch under the owning stripe, or eagerly when the caller
   follows up with {!complete_splits_locked}. Even the post-publish grace
   period is deferred to the first splicer (ps_sync_done), so an
   auto-resize expansion costs one walk over the parent chains, not a
   stop-the-world unzip. *)
let expand_locked t =
  Rp_fault.point "rp_ht.expand.pre";
  let started = Unix.gettimeofday () in
  let expand_span = Rp_trace.span_begin k_expand in
  let old = Atomic.get t.current in
  let half = old.size in
  let new_size = half * 2 in
  let buckets = take_buckets t new_size in
  let pos = if Array.length t.spare_pos = half then t.spare_pos else Array.make half Null in
  let busy = if Bytes.length t.spare_busy = half then t.spare_busy else Bytes.create half in
  t.spare_pos <- [||];
  t.spare_busy <- Bytes.empty;
  Bytes.fill busy 0 half '\000';
  let remaining = ref 0 in
  for i = 0 to half - 1 do
    let head = old.buckets.(i) in
    pos.(i) <- head;
    (match head with Null -> () | Node _ -> incr remaining);
    split_heads buckets ~size:new_size ~lo:i ~hi:(i + half) Null Null head
  done;
  Rcu.publish t.current { size = new_size; buckets };
  retire t old.buckets;
  (* An empty parent chain is born precise; a table of only such chains
     needs no splits (and no splice means no grace period either). *)
  if !remaining > 0 then
    Atomic.set t.splitting
      (Some
         {
           ps_new_size = new_size;
           ps_dest = dest_for new_size;
           ps_pos = pos;
           ps_busy = busy;
           ps_remaining = Atomic.make !remaining;
           ps_sync_done = Atomic.make false;
         });
  Atomic.incr t.expands;
  Rp_trace.span_end ~arg:new_size k_expand expand_span;
  Rp_obs.Histogram.observe_span t.resize_hist ~start:started
    ~stop:(Unix.gettimeofday ())

let normalize_size t n =
  let n = Rp_hashes.Size.next_power_of_two (max 1 n) in
  min t.max_size (max t.min_size n)

(* Explicit resize is eager, like the paper's: each doubling completes
   its unzip before the next. All stripes held. *)
let resize_locked t target =
  let target = normalize_size t target in
  complete_splits_locked t;
  while (Atomic.get t.current).size < target do
    expand_locked t;
    complete_splits_locked t
  done;
  while (Atomic.get t.current).size > target do
    shrink_locked t
  done

let resize t target = under_all_stripes t (fun () -> resize_locked t target)
let complete_splits t = under_all_stripes t (fun () -> complete_splits_locked t)

(* Auto-resize runs after the mutation's stripe is released: the check is
   lock-free, and only a tripped threshold escalates to the all-stripes
   protocol, where it is re-checked — another writer may have resized in
   the window. One-shot by design; a burst that overshoots again is
   caught by the next mutation. *)
let maybe_auto_resize t =
  if t.auto_resize then begin
    let table = Atomic.get t.current in
    let n = Atomic.get t.count in
    let grow = n * 4 > table.size * 3 && table.size < t.max_size in
    let shrink = n * 8 < table.size && table.size > t.min_size in
    if grow || shrink then
      under_all_stripes t (fun () ->
          let table = Atomic.get t.current in
          let n = Atomic.get t.count in
          if n * 4 > table.size * 3 && table.size < t.max_size then begin
            (* One pending generation at a time: finish leftovers of the
               previous doubling before publishing the next. *)
            complete_splits_locked t;
            expand_locked t
          end
          else if n * 8 < table.size && table.size > t.min_size then begin
            complete_splits_locked t;
            shrink_locked t
          end)
  end

(* A whole-table writer: every chain precise, so the locked bodies below
   may run on any key. *)
let with_all_stripes t f =
  let v =
    under_all_stripes t (fun () ->
        complete_splits_locked t;
        f ())
  in
  maybe_auto_resize t;
  v

(* --- updates --- *)

(* Every mutation: lock the key's stripe, split the key's bucket if an
   expansion left it zipped (updates below assume precise chains),
   mutate, release, then check the auto-resize thresholds — after the
   release, as a stripe mutex is not recursive. *)
let enter_key t ~hash =
  let i = stripe_of_hash t hash in
  lock_stripe t i;
  match ensure_bucket_split t ~hash with
  | () -> i
  | exception e ->
      Mutex.unlock t.stripes.(i);
      raise e

let leave_key t i =
  Mutex.unlock t.stripes.(i);
  maybe_auto_resize t

let with_stripe_hashed t ~hash f =
  let i = enter_key t ~hash in
  match f () with
  | v ->
      leave_key t i;
      v
  | exception e ->
      Mutex.unlock t.stripes.(i);
      raise e

let insert_locked t ~hash k v =
  let span = Rp_trace.span_begin_sampled k_insert in
  let table = Atomic.get t.current in
  let b = bucket_index table hash in
  (* Publication: the node is complete before the slot store (a release)
     makes it reachable. *)
  table.buckets.(b) <- make_node ~hash ~key:k ~value:v ~next:table.buckets.(b) ();
  Atomic.incr t.count;
  Rp_obs.Counter.incr t.obs_inserts;
  Rp_trace.span_end_sampled k_insert span

let insert t k v =
  let hash = t.hash k in
  with_stripe_hashed t ~hash (fun () -> insert_locked t ~hash k v)

(* Unlink the newest binding of [k]; return the node ([Null] if absent).
   Stripe of [hash] held, bucket already split — so the chain walked here
   is precise. *)
let unlink_locked t ~hash k =
  let table = Atomic.get t.current in
  let b = bucket_index table hash in
  let rec loop prev = function
    | Null -> Null
    | Node n as cur ->
        if n.hash = hash && t.equal n.key k then begin
          (match prev with
          | Null -> table.buckets.(b) <- n.next
          | Node p -> p.next <- n.next);
          Atomic.decr t.count;
          Rp_obs.Counter.incr t.obs_deletes;
          cur
        end
        else loop cur n.next
  in
  loop Null table.buckets.(b)

(* One walk of the key's precise chain: swap the newest binding's value
   in place (readers load the old value or the new, never a torn one),
   or, having found none, link a new node at the chain head. *)
let exchange_locked t ~hash k v =
  match find_node t ~hash k (Atomic.get t.current) with
  | Node n ->
      let old = n.value in
      n.value <- v;
      Some old
  | Null ->
      insert_locked t ~hash k v;
      None

let replace t k v =
  let hash = t.hash k in
  ignore (with_stripe_hashed t ~hash (fun () -> exchange_locked t ~hash k v))

type 'v exchanged = Replaced of 'v | Linked of string

(* [exchange_locked] for a key given as a slice of a buffer, compared in
   place: the key string is made only for a fresh node. *)
let exchange_slice_locked t ~hash buf off len v =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Rp_ht.exchange_slice_locked: the slice exceeds the buffer";
  let table = Atomic.get t.current in
  match search_slice hash buf off len (Array.unsafe_get table.buckets (bucket_index table hash)) with
  | Node n ->
      let old = n.value in
      n.value <- v;
      Replaced old
  | Null ->
      let key = Bytes.sub_string buf off len in
      insert_locked t ~hash key v;
      Linked key

(* The paper's removal sequence: unlink under the stripe, then mark the
   node reclaimed only once a grace period has passed — deferred through
   [call_rcu], or waited out in place by [remove_sync]. *)
let reclaim_later t = function
  | Null -> None
  | Node n as unlinked ->
      Rcu.call_rcu t.rcu (fun () -> mark_reclaimed unlinked);
      Some n.value

let remove_locked t ~hash k = reclaim_later t (unlink_locked t ~hash k)

let unlink_hashed t ~hash k =
  with_stripe_hashed t ~hash (fun () -> unlink_locked t ~hash k)

let remove t k = Option.is_some (reclaim_later t (unlink_hashed t ~hash:(t.hash k) k))

let remove_sync t k =
  match unlink_hashed t ~hash:(t.hash k) k with
  | Null -> false
  | Node _ as unlinked ->
      Rcu.synchronize t.rcu;
      mark_reclaimed unlinked;
      true

let move t ~from_key ~to_key f =
  let h_from = t.hash from_key in
  let h_to = t.hash to_key in
  let lo = min (stripe_of_hash t h_from) (stripe_of_hash t h_to) in
  let hi = max (stripe_of_hash t h_from) (stripe_of_hash t h_to) in
  let m_lo = t.stripes.(lo) in
  lock_stripe t lo;
  let m_hi =
    if hi = lo then None
    else
      match lock_stripe t hi with
      | () -> Some t.stripes.(hi)
      | exception e ->
          Mutex.unlock m_lo;
          raise e
  in
  let unlock_both () =
    (match m_hi with Some m -> Mutex.unlock m | None -> ());
    Mutex.unlock m_lo
  in
  let moved =
    match
      ensure_bucket_split t ~hash:h_from;
      ensure_bucket_split t ~hash:h_to;
      let table = Atomic.get t.current in
      match find_node t ~hash:h_from from_key table with
      | Null -> Null
      | Node n ->
          (* Publish the destination binding first, then unlink the
             source: no reader can observe both keys absent. *)
          insert_locked t ~hash:h_to to_key (f n.value);
          unlink_locked t ~hash:h_from from_key
    with
    | v ->
        unlock_both ();
        v
    | exception e ->
        unlock_both ();
        raise e
  in
  maybe_auto_resize t;
  match moved with
  | Null -> false
  | Node _ ->
      Rcu.call_rcu t.rcu (fun () -> mark_reclaimed moved);
      true

(* --- introspection --- *)

let size t = (Atomic.get t.current).size
let length t = Atomic.get t.count

let load_factor t =
  let table = Atomic.get t.current in
  float_of_int (Atomic.get t.count) /. float_of_int table.size

let resize_stats t =
  {
    expands = Atomic.get t.expands;
    shrinks = Atomic.get t.shrinks;
    unzip_passes = Atomic.get t.unzip_passes;
    unzip_splices = Atomic.get t.unzip_splices;
    recoveries = Atomic.get t.recoveries;
    lazy_splits = Atomic.get t.lazy_splits;
  }

let pending_splits t =
  match Atomic.get t.splitting with
  | None -> 0
  | Some ps -> Atomic.get ps.ps_remaining

let recovery_pending t = pending_splits t > 0

(* --- observability --- *)

let observe ?(prefix = "rp_ht") t reg =
  let name suffix = prefix ^ "_" ^ suffix in
  let fn c () = float_of_int (Atomic.get c) in
  Rp_obs.Registry.register_counter reg ~help:"wait-free lookups"
    (name "lookups_total") t.obs_lookups;
  Rp_obs.Registry.register_counter reg ~help:"node insertions"
    (name "inserts_total") t.obs_inserts;
  Rp_obs.Registry.register_counter reg ~help:"node unlinks"
    (name "deletes_total") t.obs_deletes;
  Rp_obs.Registry.register_counter reg
    ~help:"writer stripe lock acquisitions"
    (name "stripe_acquisitions_total") t.obs_stripe_acq;
  Rp_obs.Registry.register_counter reg
    ~help:"stripe acquisitions that missed try_lock (contended)"
    (name "stripe_contended_total") t.obs_stripe_contended;
  Rp_obs.Registry.fn_counter reg
    ~help:"buckets split lazily by the first touching writer"
    (name "lazy_splits_total") (fn t.lazy_splits);
  Rp_obs.Registry.fn_counter reg ~help:"table expansions"
    (name "expands_total") (fn t.expands);
  Rp_obs.Registry.fn_counter reg ~help:"table shrinks" (name "shrinks_total")
    (fn t.shrinks);
  Rp_obs.Registry.fn_counter reg ~help:"unzip passes over all chains"
    (name "unzip_passes_total") (fn t.unzip_passes);
  Rp_obs.Registry.fn_counter reg ~help:"individual chain splices"
    (name "unzip_splices_total") (fn t.unzip_splices);
  Rp_obs.Registry.fn_counter reg
    ~help:"interrupted unzips completed by a later writer"
    (name "recoveries_total") (fn t.recoveries);
  Rp_obs.Registry.gauge reg ~help:"writer lock stripes" (name "stripes")
    (fun () -> float_of_int (Array.length t.stripes));
  Rp_obs.Registry.gauge reg ~help:"buckets still awaiting their lazy split"
    (name "pending_splits") (fun () -> float_of_int (pending_splits t));
  Rp_obs.Registry.gauge reg ~help:"current bucket count" (name "buckets")
    (fun () -> float_of_int (Atomic.get t.current).size);
  Rp_obs.Registry.gauge reg ~help:"current item count" (name "items")
    (fun () -> float_of_int (Atomic.get t.count));
  Rp_obs.Registry.register_histogram reg
    ~help:"expand/shrink duration in nanoseconds"
    (name "resize_ns") t.resize_hist

let lookups t = Rp_obs.Counter.read t.obs_lookups

(* Per-stripe (acquisitions, contended) heatmap snapshot. Acquisition
   cells are read without the stripe held — a relaxed monitoring read
   that may trail in-flight writers, like [Counter.read]. *)
let stripe_heat t =
  Array.init (Array.length t.stripes) (fun i ->
      (t.stripe_acq_cells.(i * stripe_cell_stride),
       Atomic.get t.stripe_cont_cells.(i)))

(* In a read section: a retired bucket array is scrubbed for reuse once
   its readers have drained. *)
let bucket_lengths t =
  Rcu.with_read_current t.rcu (fun () ->
      Array.map length_link (Rcu.dereference t.current).buckets)

(* Quiescent whole-table check. Takes every stripe (so no writer is
   mid-mutation) and completes any pending lazy splits first — a
   half-split table is legitimately imprecise, and completing it is
   content-neutral — then demands full precision. *)
let validate t =
  under_all_stripes t (fun () ->
      complete_splits_locked t;
      let table = Atomic.get t.current in
      let expected = Atomic.get t.count in
      let limit = expected + 1 in
      let total = ref 0 in
      let error = ref None in
      let set_error msg = if !error = None then error := Some msg in
      Array.iteri
        (fun b link ->
          let steps = ref 0 in
          let rec walk = function
            | Null -> ()
            | Node n ->
                incr steps;
                if !steps > limit then
                  set_error
                    (Printf.sprintf "bucket %d: cycle or over-long chain" b)
                else begin
                  incr total;
                  let home =
                    Rp_hashes.Size.bucket_of_hash ~hash:n.hash ~size:table.size
                  in
                  if home <> b then
                    set_error
                      (Printf.sprintf "bucket %d: imprecise node (home bucket %d)"
                         b home);
                  if n.reclaimed then
                    set_error
                      (Printf.sprintf "bucket %d: reachable reclaimed node" b);
                  walk n.next
                end
          in
          walk link)
        table.buckets;
      if !total <> expected && !error = None then
        set_error
          (Printf.sprintf "length mismatch: counted %d, recorded %d" !total
             expected);
      match !error with None -> Ok () | Some msg -> Error msg)
