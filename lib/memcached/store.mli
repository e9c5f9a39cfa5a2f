(** The cache store: memcached semantics over a pluggable table backend.

    Every command is written once here, over the small backend signature
    of [Store_core] (per-key writer serialization, all-keys
    serialization, live lookup / store / remove under the key's lock, the
    budget step after the lock is released, multiget, walk, sizes). Two
    backends fill it in:

    - {!Lock} ([Store_lock]): stock memcached's discipline — one global
      lock around every operation, GETs included (lookup + exact-LRU bump
      + expiry check all inside the lock); eviction is exact LRU;
    - {!Rp} ([Store_rp]): the paper's port — GET is a wait-free
      relativistic lookup that copies the value inside the read-side
      critical section and bumps a plain-int access stamp instead of LRU
      list pointers; expiry falls back to a locked slow path; each update
      runs {e per key} under the backing table's own writer stripe for
      the key (stripe = key hash land mask: one mutex per write) so
      independent SETs/DELETEs/CAS proceed concurrently from different
      workers, and use safe relativistic memory reclamation (the table's deferred
      reclamation). CLOCK-style second-chance eviction replaces the exact
      LRU; sweeps are single-flighted and lock only each victim's stripe,
      never the whole store. Only this backend carries the cold tier. *)

type backend = Store_core.kind = Lock | Rp

type rcu_mode = Store_core.rcu_mode =
  | Memb  (** safe default: readers pay two stores per section, any thread
              may touch the store at any time *)
  | Qsbr
      (** kernel-RCU-like zero-cost read sections for the {!Rp} backend
          (the event-loop serving plane's configuration). Every domain
          that touches the store becomes a QSBR participant and must
          quiesce regularly or go offline ({!reader_offline}) before
          blocking — exactly the discipline {!Evloop} workers follow. *)

type t

type stored_result =
  | Stored
  | Not_stored
  | Exists
  | Not_found
  | Too_large  (** bigger than the largest slab chunk (1 MiB) *)

type counter_result = Cnotfound | Cnon_numeric | Cvalue of int

val create :
  ?backend:backend ->
  ?rcu_mode:rcu_mode ->
  ?max_bytes:int ->
  ?initial_size:int ->
  ?auto_resize:bool ->
  ?stripes:int ->
  ?heat_topk:int ->
  ?heat_sample:int ->
  ?clock:(unit -> float) ->
  unit ->
  t
(** [max_bytes] is the eviction budget (default 64 MiB); [initial_size] the
    initial bucket count (default 1024); [auto_resize] (default true, RP
    backend only) lets the table grow/shrink with item count; [stripes]
    (default 8, rounded up to a power of two, RP backend only) is the
    backing table's writer stripe count, the stripes every update runs
    under; [heat_topk] (default 0 = off) enables the {!Rp_heat}
    workload-insight plane tracking that many heavy hitters per sketch
    — when 0 the hot-path cost is a single branch on a [None];
    [heat_sample] (default 16, power of two) is the plane's head-sampling
    period — one note in that many pays for sketch work, and exposed
    counts are scaled back (pass 1 for exact counts in tests); [clock]
    is injectable for expiry tests. [rcu_mode] (default {!Memb}) selects
    the RCU reader protocol backing the {!Rp} table; {!Qsbr} makes every GET a
    zero-cost read section but obliges callers to QSBR discipline. *)

val backend : t -> backend
val rcu_mode : t -> rcu_mode

val write_stripes : t -> int
(** Writer stripe count of the {!Rp} backend's table (1 for {!Lock} — its
    global lock is one big stripe). *)

val validate : t -> (unit, string) result
(** The {!Rp} backend's {!Rp_ht.validate} (every stripe taken, pending
    splits completed, then every chain checked for precision); [Ok ()]
    on {!Lock}. *)

val reader_offline : t -> unit
(** Take the calling domain's reader offline (extended quiescent state) so
    grace periods stop waiting for it — required before a {!Qsbr}-mode
    domain blocks (poll wait, long sleep). The next store access brings it
    back online automatically. No-op for {!Memb} and the {!Lock} backend. *)

(** {1 Commands} *)

val get : t -> string -> Protocol.value option
(** One key's {!get_many} with its CAS: the GET path whose scalability
    the paper's figure 5 measures, through the same read section as a
    text GET run. *)

val clock : t -> float
(** A reading of the store's clock (the [clock] it was created with). *)

(** A batch's replies, reused from batch to batch: for key [j] of the
    batch, [vlen.(j)] is -1 for a miss, else the value is the [vlen.(j)]
    bytes of [vbuf] from [voff.(j)], with [flags.(j)] and [cas.(j)].
    The values are copies, made inside the read section (or under the
    lock) that found their items, so they stay valid whatever the store
    does next. *)
module Hits : sig
  type t = private {
    mutable flags : int array;
    mutable cas : int array;
    mutable voff : int array;
    mutable vlen : int array;
    mutable vbuf : Bytes.t;
    mutable fill : int;
  }

  val create : unit -> t
  val hit : t -> int -> bool

  val value : t -> int -> string
  (** A fresh string of key [j]'s value. *)
end

val get_keys : t -> clock:float -> Protocol.Keys.t -> first:int -> n:int -> Hits.t -> unit
(** The multiget path a connection's run of text [get] lines takes: the
    live value of each of the [n] keys from index [first] of the slices,
    copied into the hits in key order (the key at [first + j] at index
    [j]), as of the caller's reading [clock] of the store's clock.
    Raises [Invalid_argument] when the range exceeds the keys. One
    [cmd_get] add serves the whole batch. On the {!Rp}
    backend each {!batch_keys} keys are one read-side critical section:
    inside it the table is walked in stages over the key slices
    ({!Rp_ht.find_batch_hashed}), the hits' chunks (header and the
    value's first lines) are prefetched, and each live hot hit is served
    from its chunk by one call — its expiry checked, its access stamp
    raised, its flags, CAS and value copied — then counted and noted to
    the heat plane with the stored key. All of it happens before the
    section closes, since the chunk may be reused one grace period after
    its item leaves the table. After the section: a miss is counted; an expired item counts
    as a miss and is reaped under its own key's stripe; a cold
    one is promoted. Allocates the walk's array (one word per key); the
    hits grow only past their largest batch so far. *)

val get_many : t -> ?with_cas:bool -> string list -> Protocol.value list
(** {!get_keys} for string keys (binary GETs, {!Dispatch.handle},
    in-process callers): the keys are copied into the calling domain's
    reused slices and served through the same read sections; replies
    are the hits in key order, each [vkey] physically the requested
    key, each [vdata] a fresh copy of the value. Systhreads sharing a
    domain may call it concurrently: a grace period one of them starts
    waits out a sibling's section. *)

val batch_keys : int
(** The most keys one {!get_keys} read section serves (64): longer key
    lists are split, and the event loop ends a run of pipelined GET
    requests at this many keys, so a QSBR reader never stretches a grace
    period over an unbounded batch. *)

val prefetch : t -> Protocol.Keys.t -> unit
(** Cache hints for every key of the slices, ahead of serving them one
    by one (a connection's run holding a [set]): on the {!Rp} backend,
    one read section asks for each key's bucket slot and first chain
    node and, where that node's hash matches, its key, its item and the
    first line of its value's slab chunk ({!Rp_ht.prefetch_batch_hashed}). Changes no
    memory and no counter; a no-op on {!Lock}. *)

val set : t -> key:string -> flags:int -> exptime:int -> data:string -> stored_result
(** Store [data] under [key] unconditionally. *)

val storage :
  t ->
  [ `Set | `Add | `Replace | `Cas of int ] ->
  key:string ->
  flags:int ->
  exptime:int ->
  data:string ->
  stored_result * int
(** {!set}, {!add}, {!replace} or {!cas} (with its unique), and the CAS
    of the item it stored, read under the key's lock (0 unless
    [Stored]): what a binary storage reply carries. *)

val set_slice :
  t ->
  clock:float ->
  Protocol.Keys.t ->
  int ->
  flags:int ->
  exptime:int ->
  off:int ->
  len:int ->
  stored_result
(** [set_slice t ~clock keys i ~flags ~exptime ~off ~len] is {!set} of
    key [i] of the slices, with the [len] bytes of [keys.buf] from [off]
    as its data, at the caller's reading [clock] of the store's clock:
    the path of a [set] line read in place, the same with or without
    the heat plane and an op log. The key's hash is the one the slices
    hold; the key is compared in place and copied out only for a new
    binding, or when the heat plane or the op log needs it; the data is
    copied straight into a slab chunk once it is known to fit, and no
    value string is made. Raises [Invalid_argument] when
    [i] or the data slice is out of range. *)

val add : t -> key:string -> flags:int -> exptime:int -> data:string -> stored_result
val replace : t -> key:string -> flags:int -> exptime:int -> data:string -> stored_result
val append : t -> key:string -> data:string -> stored_result
val prepend : t -> key:string -> data:string -> stored_result

val cas :
  t -> key:string -> flags:int -> exptime:int -> data:string -> unique:int ->
  stored_result

val delete : t -> string -> bool
val incr : t -> string -> int -> counter_result
val decr : t -> string -> int -> counter_result
(** [decr] saturates at 0, as memcached does. *)

val touch : t -> key:string -> exptime:int -> bool
val flush_all : t -> unit

(** {1 Persistence plumbing}

    The hooks the {!Persist} manager builds on. The store itself never
    touches a disk: it reports every acknowledged mutation as a
    state-based {!Rp_persist.Record.t} (called inside the mutated key's
    serialization stripe, so the log's per-key order is the store's —
    records are replay-idempotent, making cross-key interleaving safe)
    and can walk and restore itself on request. *)

val set_persist_hook : t -> (Rp_persist.Record.t -> unit) option -> unit
(** Install (or clear) the mutation hook. The hook runs with the mutated
    key's stripe held — concurrent mutations on other stripes may
    invoke it concurrently, so it must be thread-safe — and must be quick
    aside from its own I/O; an exception it raises fails the triggering
    command after the in-memory effect — the client then sees an error,
    i.e. an unknown outcome. *)

val iter_items :
  t -> f:(string -> flags:int -> exptime:Item.time -> cas:int -> string -> unit) -> int
(** Walk every live binding: [f key ~flags ~exptime ~cas value], the
    item's header fields as read with its value, [value] a fresh copy
    (read through from the tier for a cold item). On the {!Rp} backend this is
    {!Rp_ht.iter_batched}: bounded read-side critical sections with
    re-entry between batches, so the walk never blocks writers nor
    extends a grace period beyond one batch; bindings may be seen twice
    across a concurrent expansion, and the walk restarts on a concurrent
    shrink (the return value counts restarts). The {!Lock} backend walks
    under its global lock (returns 0). *)

val restore : t -> Rp_persist.Record.t -> unit
(** Apply a recovered record: no hook re-entry, no command counters;
    expired records delete rather than store. CAS values are preserved
    and {!Item.note_restored_cas} keeps future allocations unique. *)

val replicate : t -> Rp_persist.Record.t -> unit
(** Apply a record from the replication stream: {!restore} semantics,
    {e plus} the record is re-logged through the persist hook inside the
    serialization lock — a following replica's own oplog thereby stays a
    faithful linearization of what it applied, so it can recover,
    snapshot, and lead after promotion. Bypasses {!read_only}. *)

val now : t -> Item.time
(** The store's (injectable) clock, as an item time. *)

(** {1 Overload guard plumbing}

    The {!Guard} wiring module attaches an {!Rp_guard.t}; {!Dispatch} and
    {!Binary_server} consult it to shed mutations, and the guard's
    Emergency actuators call back into {!evict_to_budget}. *)

val set_guard : t -> Rp_guard.t option -> unit
val guard : t -> Rp_guard.t option

(** {1 Cluster plumbing}

    The {!Cluster} glue flips these; {!Dispatch} and {!Binary_server}
    consult them. *)

val set_read_only : t -> bool -> unit
(** A following replica refuses client mutations; the replication
    stream itself applies through {!replicate}, which is exempt. *)

val read_only : t -> bool

val set_promote_hook : t -> (unit -> (string, string) result) option -> unit
(** Action behind the [cluster promote] admin command. *)

val promote : t -> (string, string) result
(** Run the promote hook ([Error "not a replica"] when none). *)

(** {1 Cold-tier plumbing}

    The {!Tier} glue installs these hooks over an {!Rp_tier.Cold_store}.
    With hooks installed, the CLOCK eviction sweep {e demotes} victims —
    appends the value to a segment file and swaps the item for a compact
    cold marker ({!Item.cold}: a chunk holding only the header and the
    frame's location), under the victim's stripe — instead of dropping
    them; a GET that finds a marker reads the segment with no
    store lock held and reinserts under the stripe (promote-on-access,
    single-flighted per key on a dedicated promote-stripe array). Keys,
    flags, expiry and CAS never leave the RP table. *)

type tier_read_error = Store_core.tier_read_error = Tier_gone | Tier_torn

type tier_hooks = Store_core.tier_hooks = {
  th_demote : string -> string -> (int * int * int) option;
      (** [th_demote key data] appends to the tier; [(segment, offset,
          len)] on success, [None] when full/failing (the store then
          falls back to plain eviction). Runs under the victim's
          stripe. *)
  th_read : int * int * int -> (string * string, tier_read_error) result;
      (** Positioned read of [(key, data)]; runs with no store lock held. *)
  th_mark_dead : int * int * int -> unit;
      (** Location dereferenced (delete, overwrite, promote, relocate,
          flush); feeds the tier's per-segment live accounting. Runs
          under the key's stripe. *)
  th_admit : unit -> bool;
      (** Demotion gate (false = shed demotions; cold reads are never
          shed). *)
}

val set_tier : t -> tier_hooks option -> unit

val tier_location : t -> string -> (int * int * int) option
(** The key's cold-marker location, if it is live and demoted, read under
    the key's stripe (the tier's recovery and compactor use it as
    the liveness oracle). *)

val tier_relocate :
  t ->
  key:string ->
  from_:int * int * int ->
  relocate:(unit -> (int * int * int) option) ->
  bool
(** Compaction step: under the key's stripe, verify the marker
    still points at [from_], run [relocate] (copy the frame to the head
    segment), and publish a marker for the returned location; the old
    frame is marked dead through [th_mark_dead]. [false] = the record was
    already dead or the copy failed; nothing changed. *)

val tier_demotions : t -> int
val tier_promotions : t -> int

val tier_attached : t -> bool
(** A tier is attached (whether or not it is admitting demotions). The
    guard's memory source keys off this: a full hot layer over a tier
    is healthy, not overload. *)

val max_bytes : t -> int
(** The eviction budget this store was created with. *)

val evict_to_budget : t -> int
(** Synchronous eviction sweep: evict (LRU / CLOCK per backend) until
    [bytes t <= max_bytes t]. Returns the number of items evicted (0 when
    already under budget). On the {!Rp} backend the sweep holds no stripe
    across the walk — it locks each victim's stripe individually — and is
    single-flighted against store-triggered sweeps (a losing caller waits
    the winner out and re-checks before returning). *)

(** {1 Introspection}

    Command counters ([cmd_get], [cmd_set], [get_hits], [get_misses],
    [deletes], [evictions], [expired]) are striped {!Rp_obs.Counter}s — the
    GET-path ones ride the wait-free lookup as unsynchronized stores. They
    live in a per-store {!Rp_obs.Registry} together with store gauges
    ([curr_items], [bytes], …) and, for the {!Rp} backend, the full
    [rp_ht_*] / [rcu_*] instrument set of the backing table and its RCU
    instance. *)

val registry : t -> Rp_obs.Registry.t
(** The store's instrument registry (for Prometheus exposition or report
    files). *)

val stats : t -> (string * string) list
(** The default [stats] section: [backend] plus every store-level
    instrument (each plane's own instruments are left to its section;
    [tier_demotions_total] stays here, next to [evictions]). *)

val stats_section : t -> string -> (string * string) list option
(** [stats <name>] lines, for the text and binary protocols alike: [""]
    is {!stats}; [rp] the [rp_ht_*]/[rcu_*] instruments (empty on
    {!Lock}); [persist] the [persist_*] ones; [trace] the flight
    recorder's live state ({!Rp_trace.stats_kv}); [guard], [heat],
    [tier] and [cluster] a plane's section, a lone [<plane>_enabled 0]
    while it is off; [reset] clears the heat sketches, exemplar cells
    and every registry histogram — monotonic counters ([cmd_get],
    [evictions], ...) survive, as in stock memcached — and answers
    nothing. [None] for an unknown name. *)

val set_section : t -> string -> (unit -> (string * string) list) option -> unit
(** Plug ([Some live]) or unplug ([None]) a plane's section: [stats
    <name>] then answers [<name>_enabled 1] followed by [live ()], or
    [<name>_enabled 0]. The {!Tier} and {!Cluster} glue register theirs. *)

val heat : t -> Rp_heat.t option
(** The workload-insight plane, when the store was created with
    [heat_topk > 0]. *)

val heat_json : ?n:int -> t -> string
(** The [/heat] JSON document (top [n] entries per sketch, default all
    [k]); [{"heat_enabled": false}] when the plane is off. *)

val items : t -> int

val bytes : t -> int
(** Chunk bytes charged in the slab accounting (what eviction compares to
    the budget; includes internal fragmentation, as in stock memcached). *)

val slab_stats : t -> Slab.class_stats list
val fragmentation : t -> float
val evictions : t -> int
