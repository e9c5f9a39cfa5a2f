(** Wiring between {!Rp_tier.Cold_store} and this serving stack: the
    demote/read/mark-dead hooks the {!Store} eviction sweep and GET path
    call through, the background copying compactor, the guard's cold-tier
    pressure source, and the [tier_*] instruments.

    Startup order mirrors the server binary: create the store, install
    the guard, {!attach} the tier, attach {!Persist} (whose recovery
    replays every value back into RAM), then {!finish_recovery} — which
    rebuilds the per-segment live maps against the recovered table and
    drops segments nothing references anymore. *)

type t

val attach :
  ?min_dead_ratio:float ->
  ?compact_interval:float ->
  ?segment_bytes:int ->
  dir:string ->
  max_mb:int ->
  Store.t ->
  (t, string) result
(** Open the segment store under [dir] with a [max_mb] byte budget and
    install the tier hooks. [Error] for a store on the {!Store.Lock}
    backend, whose eviction never demotes. If a guard is already
    attached to the store, registers the ["tier"] pressure source (tier
    bytes / budget) and the
    Emergency actuator (pause compaction, shed demotions — cold reads
    are never shed; both revert on descent). Spawns the compaction
    domain: every [compact_interval] (default 0.05 s), the first time
    one interval after [attach] returns, it looks for a
    sealed segment at least [min_dead_ratio] (default 0.5) dead and
    copies its live records to the head. [segment_bytes] caps one
    segment file (default: budget / 8). *)

val finish_recovery : t -> int
(** Rebuild segment live maps against the store's current cold markers
    (none, after a persist replay — every replayed value is hot), and
    drop fully-dead segments. Returns the number dropped. Call after
    {!Persist.attach}. *)

val compact_once : t -> bool
(** One synchronous compaction pass (what the background domain runs):
    pick a candidate segment, relocate its live records, let the empty
    segment drop. [false] when there is no candidate, compaction is
    paused, or another pass is in flight. Deterministic hatch for tests
    and the torture harness. *)

val compactions : t -> int
val cold_store : t -> Rp_tier.Cold_store.t
val paused : t -> bool

val stop : t -> unit
(** Join the compaction domain, uninstall the store hooks, close the
    segment store. Cold markers left in the table become unreadable —
    shutdown-only. *)
