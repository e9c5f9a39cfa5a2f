(** Relativistic-programming primitives: userspace RCU.

    This module provides the three primitives the paper's algorithms are
    built from:

    - {b delimited readers} ({!read_lock} / {!read_unlock}): wait-free entry
      and exit of read-side critical sections — notification, not permission;
    - {b pointer publication} ({!publish} / {!dereference}): ordering between
      initialising a structure and making it reachable (the analogue of
      [rcu_assign_pointer] / [rcu_dereference]);
    - {b wait-for-readers} ({!synchronize}): blocks until every read-side
      critical section that was in progress when the call began has ended.
      Readers that begin afterwards are not waited for.

    The implementation is an epoch scheme in the style of userspace RCU:
    each registered reader domain owns a slot holding an atomic counter,
    and [synchronize] advances a global epoch and waits until every slot
    is clear or has observed the new epoch. Because OCaml's [Atomic]
    operations are sequentially consistent, a single epoch advance per
    grace period suffices (the classic two-phase flip guards against
    reorderings that cannot occur under seq_cst). Two reader protocols
    share that registry, grace-period scan, stall watchdog and
    {!call_rcu} queue, and differ only in when a slot is written:

    - {!Memb} — the safe default. The outermost [read_lock] stores the
      epoch into the slot and the outermost [read_unlock] clears it: two
      seq_cst stores per section, and a thread may block anywhere outside
      one.
    - {!Qsbr} — kernel-RCU-like zero-cost readers: a section is nesting
      bookkeeping only. A domain counts as reading at all times except when
      it announces a {!quiescent_state} (also done by itself after every
      64th completed outermost section) or is {!offline}. A domain that
      blocks indefinitely while online stalls every grace period, so it
      must go offline first.

    A domain's systhreads share its slot; the outermost section belongs to
    the systhread that opened it (see {!synchronize}).

    OCaml's GC performs physical reclamation of heap blocks, so grace
    periods here provide {e ordering} (the resize algorithms depend on
    it) and {e semantic} deferral via {!call_rcu} (e.g. running eviction
    callbacks only once no reader can still observe an item). Memory the
    GC does not own is the exception: a callback may reclaim it, as the
    memcached store's slab does with value chunks. *)

type mode =
  | Memb  (** section entry and exit each store to the reader's slot *)
  | Qsbr  (** sections are free; the slot moves at quiescent states *)

type t
(** An RCU instance: a global epoch plus a registry of reader slots,
    running one {!mode}. Independent instances have independent grace
    periods. *)

type reader
(** A per-domain reader handle. Handles must not be shared across domains. *)

exception Too_many_readers
(** Raised by {!register} (and so by the implicit registration in
    {!reader_for_current_domain}) when every reader slot is occupied.
    Unregistering any reader frees its slot for reuse. *)

val create : ?mode:mode -> ?max_readers:int -> ?stall_budget:float -> unit -> t
(** [create ()] builds a fresh instance (default {!Memb}) supporting up to
    [max_readers] (default 128) concurrently registered reader domains.
    [stall_budget] arms the grace-period stall watchdog (see
    {!section-stalls}); by default it is off. *)

val mode : t -> mode

(** {1 Reader registration} *)

val register : t -> reader
(** Register the calling domain (online, under {!Qsbr}). Raises
    {!Too_many_readers} if all slots are taken. *)

val unregister : t -> reader -> unit
(** Release a reader slot. The reader must not be inside a critical section. *)

val reader_for_current_domain : t -> reader
(** Return this domain's reader handle, registering it on first use
    (stored in domain-local state). Convenient for library-internal read
    sections where threading a handle through the API is impractical. *)

val registered_readers : t -> int
(** Number of currently registered readers. *)

(** {1 Read-side critical sections} *)

val read_lock : reader -> unit
(** Enter a read-side critical section. Wait-free; nestable. Raises
    [Invalid_argument] on an offline {!Qsbr} reader. *)

val read_unlock : reader -> unit
(** Leave a read-side critical section. Wait-free. Under {!Qsbr} every
    64th outermost exit announces a quiescent state. *)

val with_read : reader -> (unit -> 'a) -> 'a
(** [with_read r f] runs [f] inside a read-side critical section, leaving it
    even if [f] raises. *)

val read_lock_current : t -> unit
(** [read_lock (reader_for_current_domain t)], first bringing the domain
    back {!online} under {!Qsbr}. *)

val read_unlock_current : t -> unit

val with_read_current : t -> (unit -> 'a) -> 'a

val in_critical_section : reader -> bool
(** [true] while the reader is inside a (possibly nested) critical section. *)

(** {1 Quiescent states}

    What a {!Qsbr} reader announces; under {!Memb} each is a no-op, as a
    memb reader is quiescent whenever it is outside a section. *)

val quiescent_state : reader -> unit
(** Announce that this domain holds no RCU-protected references: one
    atomic store. Raises [Invalid_argument] inside a critical section. *)

val offline : reader -> unit
(** Enter an extended quiescent state (e.g. before blocking I/O): grace
    periods stop waiting for this domain. Raises [Invalid_argument] inside
    a critical section. *)

val online : reader -> unit
(** Leave the extended quiescent state; a no-op when already online. *)

val is_online : reader -> bool
(** Whether grace periods wait for this reader's quiescent states (always
    [true] under {!Memb}). *)

val offline_current : t -> unit
(** {!offline} for the current domain's reader, if it has one. Required
    under {!Qsbr} before a reader domain blocks for long or exits; the
    next {!read_lock_current} brings it back online. *)

(** {1 Publication} *)

val publish : 'a Atomic.t -> 'a -> unit
(** [publish cell v] makes [v] reachable through [cell] with release
    semantics: all initialising writes made before the call are visible to
    any reader that dereferences the new value. *)

val dereference : 'a Atomic.t -> 'a
(** Read a published pointer with the ordering guarantees readers need. *)

(** {1 Grace periods} *)

val synchronize : t -> unit
(** Wait for all pre-existing readers: every read-side critical section that
    was in progress when [synchronize] was called is finished when it
    returns. The calling systhread must not be inside a critical section
    of [t] (deadlock); this is checked and raises [Invalid_argument]. A
    section a sibling systhread holds on the caller's domain is waited
    out. Under {!Qsbr} the caller's domain is offline for the wait.
    Concurrent calls are serialized internally. *)

val mutex_lock : t -> Mutex.t -> unit
(** Lock a writer mutex whose holder may wait for a grace period of [t].
    Under {!Qsbr} a domain that must wait for it goes offline meanwhile
    (if it is online outside any section), so the holder's grace period
    does not wait on it; under {!Memb} it is [Mutex.lock]. *)

val call_rcu : t -> (unit -> unit) -> unit
(** Defer a callback until after a grace period. Callbacks run on the domain
    that triggers a flush ({!barrier}, or an internal amortized flush once
    the pending queue exceeds a threshold), strictly after a full grace
    period that began after the [call_rcu] call. *)

val barrier : t -> unit
(** Wait until every previously queued {!call_rcu} callback has executed. *)

val pending_callbacks : t -> int
(** Number of queued, not-yet-run callbacks. *)

(** {1:stalls Grace-period stall watchdog}

    The userspace analogue of Linux's RCU CPU-stall warning: when a
    {!synchronize} has waited longer than the configured budget on one
    reader slot, the instance records a {!stall_report} naming the stuck
    slot, its owner domain, and the epoch it is pinned at — the three
    facts needed to find a reader sleeping (or looping) inside a read-side
    critical section. Detection never aborts the grace period; the wait
    continues until the reader actually leaves. Each offending slot is
    reported at most once per grace period. *)

type stall_report = {
  slot_index : int;  (** index of the stuck slot in the registry *)
  owner_domain : int;  (** domain id that registered the slot *)
  nesting : int;  (** read-side nesting depth (racy snapshot) *)
  slot_epoch : int;  (** epoch the slot last observed *)
  target_epoch : int;  (** epoch the grace period is waiting for *)
  waited : float;  (** seconds waited when the report was made *)
}

val set_stall_budget : t -> float option -> unit
(** Set or clear the per-slot wait budget, in seconds. Raises
    [Invalid_argument] on a non-positive budget. *)

val stall_budget : t -> float option

val set_stall_handler : t -> (stall_report -> unit) option -> unit
(** Callback invoked (on the synchronizing domain, with no internal locks
    held beyond the grace-period mutex) each time a stall is detected.
    Exceptions it raises are swallowed. *)

val stall_count : t -> int
(** Total stalls detected over the instance's lifetime. *)

val last_stall : t -> stall_report option
val pp_stall_report : Format.formatter -> stall_report -> unit

(** {1 Statistics} *)

type stats = {
  grace_periods : int;  (** completed grace periods *)
  synchronize_calls : int;  (** explicit {!synchronize} invocations *)
  callbacks_invoked : int;  (** callbacks run by the deferral machinery *)
  readers_registered : int;  (** current registry occupancy *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** {1 Observability}

    Every instance records grace-period latency into a striped
    {!Rp_obs.Histogram} and records each grace period as an ["rcu.gp"]
    span (with the target epoch as argument) in the {!Rp_trace} flight
    recorder. *)

val observe : ?prefix:string -> t -> Rp_obs.Registry.t -> unit
(** Register this instance's instruments under [prefix] (default
    ["rcu"]): [<prefix>_grace_periods_total], [<prefix>_synchronize_total],
    [<prefix>_callbacks_total], [<prefix>_stalls_total] (the watchdog
    surface), [<prefix>_readers], [<prefix>_callbacks_pending], and the
    [<prefix>_grace_period_ns] latency histogram. *)

