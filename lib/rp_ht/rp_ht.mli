(** Resizable, scalable, concurrent hash table via relativistic programming —
    the paper's primary contribution.

    Open chaining over relativistic linked lists. Lookups are wait-free:
    they run inside an RCU read-side critical section, dereference the
    current bucket array through a single published pointer, and walk the
    chain with atomic loads only — no stores to shared memory, no locks, no
    retries. Updates (insert / remove / move) serialize on a {e striped}
    writer lock — a power-of-two array of mutexes indexed by key hash — so
    independent keys mutate concurrently; cross-stripe operations (resize,
    auto-resize, {!complete_splits}, {!validate}) take every stripe in
    ascending order. All writers order their effects with publication and
    wait-for-readers.

    Consistency guarantee (the paper's definition): a reader traversing the
    bucket a key hashes to always observes {e every} element of that bucket.
    During a resize a bucket may transiently be {e imprecise} — contain
    extra elements belonging to a sibling bucket — which lookups tolerate by
    key comparison.

    Resizing (bucket counts are powers of two):
    - {b shrink} to half: link each pair of sibling chains end-to-end,
      publish the half-size bucket array, wait for readers once, reclaim;
    - {b expand} to double: publish a double-size bucket array whose buckets
      point into the old chains (imprecise but complete), then unzip each
      chain — repeatedly splice interleaved runs apart with a
      wait-for-readers between splices of the same chain — until it is
      precise. An {e explicit} {!resize} unzips every chain eagerly, one
      splice per chain per pass and one grace period per pass, exactly the
      paper's cost structure. An {e auto-resize} expansion instead parks a
      split cell per parent chain and returns immediately: each bucket is
      rehashed lazily by the first writer that touches it (under that
      writer's stripe lock), so a resize never stops writers on unrelated
      stripes and its cost is amortized across subsequent writes.

    Larger factors are performed as repeated doublings/halvings. *)

type ('k, 'v) t

type resize_stats = {
  expands : int;  (** completed expansions (each a single doubling) *)
  shrinks : int;  (** completed shrinks (each a single halving) *)
  unzip_passes : int;  (** grace-period-closed splice rounds, all chains *)
  unzip_splices : int;  (** total splice steps across all expansions *)
  recoveries : int;
      (** interrupted splits completed on behalf of a crashed writer *)
  lazy_splits : int;
      (** buckets rehashed lazily by the first writer to touch them *)
}

val create :
  ?rcu:Rcu.t ->
  ?initial_size:int ->
  ?min_size:int ->
  ?max_size:int ->
  ?auto_resize:bool ->
  ?stripes:int ->
  hash:('k -> int) ->
  equal:('k -> 'k -> bool) ->
  unit ->
  ('k, 'v) t
(** [create ~hash ~equal ()] builds an empty table.

    - [rcu]: the RCU instance delimiting this table's readers (a fresh
      memb one by default; share an instance to amortize grace periods
      across structures). A {!Rcu.Qsbr} instance gives kernel-RCU-like
      zero-cost readers, and every domain touching the table must then
      respect QSBR's no-indefinite-blocking rule;
    - [initial_size]: initial bucket count, rounded up to a power of two
      (default 8);
    - [min_size] / [max_size]: clamp for resizing, rounded to powers of two
      (defaults 4 and 2^22);
    - [auto_resize]: when [true] (default), updates grow the table beyond
      load factor 0.75 and shrink it below 0.125;
    - [stripes]: writer-lock stripe count, rounded up to a power of two.
      Defaults to [min 8 min_size]. An explicit value raises [min_size] to
      at least the stripe count: the bucket-to-stripe mapping
      [stripe = hash land (stripes - 1)] must stay stable across resizes,
      which requires [stripes <= size] at every size. *)

val rcu : ('k, 'v) t -> Rcu.t
(** The RCU instance running this table's read sections and grace
    periods. *)

val stripe_count : ('k, 'v) t -> int
(** Number of writer-lock stripes (a power of two, fixed at creation). *)

(** {1 Wait-free read side} *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Wait-free lookup. Runs in a read-side critical section of the calling
    domain (registered on first use); the value is copied out before the
    section ends. *)

val mem : ('k, 'v) t -> 'k -> bool

val find_opt_hashed : ('k, 'v) t -> hash:int -> 'k -> 'v option
(** {!find} with a precomputed hash (protocol servers cache hashes). *)

val find_batch_hashed :
  (string, 'v) t ->
  buf:Bytes.t ->
  offs:int array ->
  lens:int array ->
  hashes:int array ->
  first:int ->
  (string, 'v) Rp_list.link array ->
  int ->
  unit
(** [find_batch_hashed t ~buf ~offs ~lens ~hashes ~first found n] looks
    up, for every [i] from [first] to [first + n - 1], the key held in
    the slice of [buf] at [offs.(i)] of [lens.(i)] bytes, whose hash is
    [hashes.(i)], storing its node — or [Rp_list.Null] on a miss — in
    [found.(i - first)]. Keys are compared with the stored keys byte for
    byte, 8 bytes at a time, so the table's [equal] must be
    [String.equal]. The caller must already hold a read section, and
    read each node's [value] before leaving it. The batch is walked in
    stages, each prefetching for every key what the next one loads
    (every bucket slot, then every first node, then each first node's
    key string where its hash matches, then every chain walk), so the
    lookups' cache misses overlap; nothing is allocated. Counts [n]
    lookups. Raises [Invalid_argument] when a range exceeds its array
    or a slice exceeds [buf]. *)

val prefetch_batch_hashed :
  ('k, 'v) t -> hashes:int array -> first:int -> int -> hint:('v -> unit) -> unit
(** [prefetch_batch_hashed t ~hashes ~first n ~hint] asks the cache, for
    every [i] from [first] to [first + n - 1], for the lines a lookup of
    the key hashing to [hashes.(i)] would load first: its bucket slot,
    its chain's first two nodes and, for the first of them whose hash
    matches, the node's key and value, and then whatever [hint]
    prefetches from that value. While an expansion is pending, it also
    asks for the key's split-state slot, which a writer of the key reads
    first ({!enter_key}). Hints only, in one read section of its own,
    which [hint] must not leave: no key is compared, nothing is recorded or counted, and
    no later result depends on it. Raises [Invalid_argument] when the
    range exceeds [hashes]. *)

val iter : ('k, 'v) t -> f:('k -> 'v -> unit) -> unit
(** Iterate over a snapshot inside one read-side critical section. [f] must
    not block and must not update this table. Bindings inserted or removed
    concurrently may or may not be seen; bindings present throughout are
    seen exactly once per bucket they belong to. *)

val fold : ('k, 'v) t -> init:'a -> f:('a -> 'k -> 'v -> 'a) -> 'a

val iter_batched : ?batch:int -> ('k, 'v) t -> f:('k -> 'v -> unit) -> int
(** Like {!iter}, but each read-side critical section covers at most
    [batch] buckets (default 64), re-entering between batches — so a walk
    over a huge table never extends a grace period beyond one batch's
    worth of work. Built for long-running background readers such as the
    persistence snapshotter.

    Because the walk spans many read sections, it is {e not} a single
    snapshot. Guarantees: a binding present for the whole walk is seen at
    least once (possibly more than once if the table expands mid-walk —
    callers must tolerate duplicates); concurrent inserts/removes may or
    may not be seen. A concurrent {e shrink} can move unvisited keys below
    the cursor, so the walk watches the bucket-array size it dereferences
    and restarts from bucket 0 whenever the size drops below a previously
    observed size. Returns the number of such restarts. A half-split table
    (lazy rehash in progress) needs no special handling: pending splits
    only leave buckets imprecise, and the walk already filters nodes by
    their home bucket. *)

(** {1 Updates}

    Updates on different stripes proceed concurrently; two updates whose
    key hashes share a stripe serialize on that stripe's mutex. Updates
    must not be called from inside a read-side critical section. *)

val insert : ('k, 'v) t -> 'k -> 'v -> unit
(** Publish a new binding. If the key is already bound the new binding
    shadows the old one (lookups return the newest). *)

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Update an existing binding's value in place, or insert if absent
    ({!exchange_locked} under the key's stripe). *)

val remove : ('k, 'v) t -> 'k -> bool
(** Unlink the newest binding for the key ({!remove_locked} under the
    key's stripe). [true] if a binding was removed. *)

val remove_sync : ('k, 'v) t -> 'k -> bool
(** Like {!remove} but blocks for a full grace period before marking the
    node reclaimed — the paper's removal sequence, verbatim. *)

val move : ('k, 'v) t -> from_key:'k -> to_key:'k -> ('v -> 'v) -> bool
(** Atomic cross-bucket move (the previous-work primitive): rebind
    [from_key]'s value (transformed by the function) under [to_key] such
    that no concurrent reader observes a state where {e neither} key is
    bound. Takes both keys' stripes in ascending order. [true] if
    [from_key] was bound. *)

(** {1 Updates under a held stripe}

    For a caller that runs a whole write — several table steps, its own
    accounting, a log record — under the key's one stripe. The
    [*_locked] bodies run between {!enter_key} and {!leave_key} for
    their key, or inside {!with_all_stripes}. *)

val enter_key : ('k, 'v) t -> hash:int -> int
(** Lock the stripe of [hash] (a waiter goes offline under QSBR and is
    counted as contended), then split the key's bucket if an expansion
    left it pending. Returns the stripe for {!leave_key}. Not from
    inside a read section, nor with a stripe of this table held. *)

val leave_key : ('k, 'v) t -> int -> unit
(** Unlock the stripe, then run the auto-resize check, which may take
    every stripe. Also the way out of a locked body that raised. *)

val with_all_stripes : ('k, 'v) t -> (unit -> 'a) -> 'a
(** Run [f] with every stripe held and every pending split completed,
    so [f] may run the [*_locked] bodies on any key; the auto-resize
    check runs once, after the unlock. *)

val exchange_locked : ('k, 'v) t -> hash:int -> 'k -> 'v -> 'v option
(** Bind [k] to [v] in one walk of its chain: swap the newest binding's
    value in place (a reader sees the old value or the new one) or
    publish a new binding. Returns the replaced value. [hash] is the
    table's hash of [k]. *)

type 'v exchanged =
  | Replaced of 'v  (** the value the key was bound to *)
  | Linked of string  (** the key was unbound: the fresh node's key *)

val exchange_slice_locked :
  (string, 'v) t -> hash:int -> Bytes.t -> int -> int -> 'v -> 'v exchanged
(** {!exchange_locked} for the key held in the [len] bytes of [buf] from
    [off], compared in place; the slice is copied only for a new
    binding, and returned. Needs [equal = String.equal]. Raises
    [Invalid_argument] when the slice exceeds [buf]. *)

val remove_locked : ('k, 'v) t -> hash:int -> 'k -> 'v option
(** Unlink the newest binding of [k] in one walk and return its value;
    the node is marked reclaimed through [call_rcu], after a grace
    period. *)

(** {1 Resizing} *)

val resize : ('k, 'v) t -> int -> unit
(** Eager resize to the given bucket count (rounded to a power of two,
    clamped to [min_size]/[max_size]): completes any pending lazy splits,
    then unzips every doubling to precision before returning. Concurrent
    lookups proceed untouched; concurrent updates wait (all stripes are
    held). *)

val complete_splits : ('k, 'v) t -> unit
(** Finish every bucket split a lazy expansion (or a crashed writer) left
    pending, eagerly, under all stripes. After this returns with no other
    writer active, every chain is precise and {!recovery_pending} is
    [false]. Content-neutral: no binding is added, removed, or changed. *)

val size : ('k, 'v) t -> int
(** Current bucket count. *)

val length : ('k, 'v) t -> int
(** Number of bindings (O(1); exact under quiescence). *)

val load_factor : ('k, 'v) t -> float

(** {1 Crash recovery}

    Writers carry failpoints (["rp_ht.stripe.lock"], ["rp_ht.split.lazy"],
    ["rp_ht.expand.pre"], ["rp_ht.shrink.pre"], ["rp_ht.unzip.splice"] —
    see {!Rp_fault}) so fault-injection tests can kill a writer mid-split
    or a resizer mid-unzip. A killed splicer releases its stripe with the
    table {e imprecise but complete}: readers still find every binding
    (the paper's guarantee holds throughout), and the interrupted cell —
    plus any chains not yet split — stays parked on the table. The next
    writer to touch an affected bucket re-establishes the torn grace
    period and finishes that bucket's split (counted in
    [resize_stats.recoveries]) before mutating; {!complete_splits},
    {!resize}, and {!validate} finish all of them at once. *)

val recovery_pending : ('k, 'v) t -> bool
(** [true] while any bucket split is still pending — whether parked by a
    crashed writer or simply not yet demanded by the lazy rehash. *)

val pending_splits : ('k, 'v) t -> int
(** Number of buckets still awaiting their split (0 when no expansion is
    in progress). *)

(** {1 Introspection (tests, benchmarks)} *)

val resize_stats : ('k, 'v) t -> resize_stats

val bucket_lengths : ('k, 'v) t -> int array
(** Chain length per bucket (snapshot). *)

val validate : ('k, 'v) t -> (unit, string) result
(** Whole-table invariant check: takes every stripe (so no writer is
    mid-mutation), completes pending lazy splits — content-neutral — and
    then checks that every reachable node sits in the bucket its hash
    selects (precision), that no reachable node is marked reclaimed, and
    that the O(1) length matches a full count. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Snapshot of all bindings (unspecified order). *)

(** {1 Observability}

    Every table counts lookups, inserts, and deletes with striped
    {!Rp_obs.Counter}s — the lookup count rides the wait-free read path
    as a single unsynchronized store, never a shared atomic RMW — and
    records expand/shrink durations into a striped histogram. Stripe-lock
    traffic is counted the same way (acquisitions, contended
    acquisitions, lazy splits). Resize milestones (["rp_ht.expand"],
    ["rp_ht.shrink"] and ["rp_ht.unzip_pass"] spans, ["rp_ht.recovery"]
    instants, each with the new bucket count as argument) go to the
    {!Rp_trace} flight recorder. *)

val observe : ?prefix:string -> ('k, 'v) t -> Rp_obs.Registry.t -> unit
(** Register this table's instruments under [prefix] (default ["rp_ht"]):
    [<prefix>_lookups_total], [<prefix>_inserts_total],
    [<prefix>_deletes_total], [<prefix>_stripe_acquisitions_total],
    [<prefix>_stripe_contended_total], [<prefix>_lazy_splits_total],
    [<prefix>_expands_total], [<prefix>_shrinks_total],
    [<prefix>_unzip_passes_total], [<prefix>_unzip_splices_total],
    [<prefix>_recoveries_total], [<prefix>_stripes],
    [<prefix>_pending_splits], [<prefix>_buckets], [<prefix>_items], and
    the [<prefix>_resize_ns] histogram. *)

val lookups : ('k, 'v) t -> int
(** Lifetime {!find} count (striped sum; see {!Rp_obs.Counter.read}). *)

val stripe_heat : ('k, 'v) t -> (int * int) array
(** Per-stripe [(acquisitions, contended)] heatmap cells behind the
    aggregate [stripe_acquisitions_total]/[stripe_contended_total]
    counters — which stripes are hot, not just how hot the lock plane
    is. One entry per writer stripe. Relaxed monitoring reads. *)
