(** rcutorture-style stress harness for the hash-table implementations.

    The oracle is the paper's consistency guarantee: a set of {e resident}
    keys is inserted before the run and never touched again, so every lookup
    of a resident key must succeed with the right value at every instant —
    while writer domains churn a disjoint key range, resizer domains flip
    the table between its size bounds, and (optionally) a fault injector
    adds random stalls to stretch grace periods and shift interleavings.

    A churn-range oracle also runs: values are derived from keys, so a
    lookup that returns a {e wrong} value (as opposed to a miss, which is
    legitimate for churned keys) is a violation.

    Every scenario shares one skeleton: a run phase that arms the
    perturbation sites and the scenario's own failpoints around
    {!Rp_harness.Runner.run}, one oracle tally, and one teardown that
    releases what the scenario took (servers, child processes, persist
    managers, guards, armed sites) on every exit path. The twelve, with
    the attack, the oracle, the report fields each sets and the proof
    obligation each discharges, are tabled in DESIGN.md §8 "Torture
    scenarios":

    - {b steady}: any table; optional random stalls.
    - {b crash_resizer}: resizers and writers die mid-unzip; writers
      complete the interrupted unzips ([report.recoveries]).
    - {b lazy_split_crash}: writers die before and inside their per-bucket
      lazy splits; a peer finishes each one.
    - {b mixed_rw}: striped writers run a 50/50 GET/SET mix; the store must
      equal the per-writer models.
    - {b stalled_reader}: a reader naps in its read section; the stall
      watchdog must catch it ([report.stalls_detected]).
    - {b torn_io}: short writes, split reads and resets on the memcached
      socket; retrying clients still see every resident.
    - {b crash_recovery}: a staged [kill -9] mid-snapshot; the warm restart
      must reproduce the writers' models exactly.
    - {b tier_crash}: the same with the cold tier attached, killed
      mid-demotion and mid-compaction.
    - {b overload_storm}, {b slow_client}, {b disk_full}: the guard sheds
      mutations, kills a non-draining client, rides out failing appends,
      and walks back to healthy while GETs stay exact.
    - {b replication_divergence}: two real [memcached_server] children; the
      leader is [SIGKILL]ed, the follower promoted, and it must equal the
      models exactly.

    Every scenario but steady runs on the rp table only
    ({!rp_only_scenarios}). *)

type config = {
  table : string;  (** implementation under test; see {!table_names} *)
  scenario : string;  (** see {!scenario_names}; "steady" is the classic run *)
  duration : float;  (** seconds *)
  readers : int;
  writers : int;
  resizers : int;
  resident_keys : int;
  churn_keys : int;
  small_size : int;  (** resizers flip between these bucket counts *)
  large_size : int;
  fault_injection : bool;
      (** adds random stalls (writers/resizers sleep at 1 in 64 ops,
          <=1 ms) and arms [Yield]/[Delay] perturbation failpoints inside
          Rcu and Rp_ht for the duration of the run *)
  seed : int;
}

val default_config : config
(** rp table, steady scenario, 0.5 s, 2 readers / 1 writer / 1 resizer,
    1024 resident keys. *)

val table_names : string list
(** Valid values for [config.table]: "rp", "rp-qsbr", "rp-fixed" (no
    resizers), "ddds", "rwlock", "lock", "xu". *)

val scenario_names : string list
(** Valid values for [config.scenario]: "steady", "crash_resizer",
    "tier_crash" (SIGKILL mid-demotion/mid-compaction with the cold tier
    attached; exact durable-readability oracle after the warm restart),
    "stalled_reader", "torn_io", "crash_recovery", "overload_storm",
    "slow_client", "disk_full", "replication_divergence". *)

type report = {
  reader_checks : int;  (** lookups performed by the oracle readers *)
  missing_resident : int;  (** resident key not found — a violation *)
  wrong_value : int;  (** any key bound to a wrong value — a violation *)
  writer_ops : int;
  resize_flips : int;
  faults_injected : int;
      (** failpoint fires plus random stalls/parks injected this run *)
  stalls_detected : int;  (** grace-period stall watchdog reports *)
  recoveries : int;
      (** interrupted unzips completed by later writers; for
          crash_recovery, durable recovery points exercised (snapshots
          published plus the warm restart) *)
  elapsed : float;
  metrics : (string * string) list;
      (** end-of-run {!Rp_obs.Registry} snapshot of the structures under
          test ([rp_ht_*]/[rcu_*] for the fault scenarios, the store
          registry for torn_io; empty for steady, whose tables hide behind
          the backend-agnostic TABLE signature). [stalls_detected] and
          [recoveries] above are read from this same registry, so report
          assertions and metric exports share one API. *)
}

val violations : report -> int
val pp_report : Format.formatter -> report -> unit

val rp_only_scenarios : string list
(** The scenarios that refuse any table but "rp": every one but
    "steady". *)

val run : config -> report
(** Raises [Invalid_argument] on an unknown table or scenario name, a
    non-positive worker/duration configuration, or a non-rp table paired
    with a fault scenario. Failpoint sites armed by the run are disarmed
    (and only those), and every server, child process and manager it
    started is stopped, before it returns or raises. *)
