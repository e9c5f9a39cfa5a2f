(** Pressure-sensing policy plane: the degradation ladder

    {v Healthy -> Throttle -> Shed -> Emergency v}

    fed by pluggable pressure sources and swept periodically with
    hysteresis. The guard decides nothing about traffic itself: hot
    paths ask {!admit_mutation}/{!accepting} (one atomic load each) and
    act; actuators (pause snapshots, flip fsync, evict) subscribe via
    {!on_transition}. Every transition emits a control-tier
    {!Rp_trace} event and bumps registry instruments
    ([guard_state], [guard_shed_total], …). *)

type state = Healthy | Throttle | Shed | Emergency

val state_name : state -> string

(** Ladder thresholds over normalized pressure (1.0 = at the configured
    limit). Each rung's [down] sits below its [up]: the hysteresis band
    that keeps shedding from flapping at a boundary. *)
type watermarks = {
  throttle_up : float;
  throttle_down : float;
  shed_up : float;
  shed_down : float;
  emergency_up : float;
  emergency_down : float;
}

val default_watermarks : watermarks
(** 0.70/0.55, 0.85/0.70, 0.95/0.80. *)

val watermarks_of_string : string -> (watermarks, string) result
(** ["HIGH:LOW"] positions the Shed rung ([0 < LOW < HIGH <= 1]);
    Throttle and Emergency are derived at -0.15/+0.10 around it. *)

type t

val create : ?watermarks:watermarks -> ?interval:float -> unit -> t
(** [interval] (default 0.05 s) is the sweep period — also the bound on
    how long a vanished overload lingers before the guard returns to
    [Healthy]. *)

val add_source : t -> name:string -> (unit -> float) -> unit
(** Register a pressure source. Sampled by every sweep; return
    normalized pressure (0 idle, 1 at the limit, 2 = hard-failure
    latch, which forces [Emergency]). A sampler that raises keeps its
    previous value. *)

val on_transition : t -> (state -> state -> unit) -> unit
(** Subscribe an actuator: called as [(old_state, new_state)] on every
    transition, outside the guard mutex, exceptions swallowed. *)

val start : t -> unit
(** Spawn the background sweeper thread. Idempotent. *)

val stop : t -> unit
val sweep : t -> unit
(** One synchronous pressure evaluation (what the sweeper runs). *)

val state : t -> state
val peak_state : t -> state
val pressure : t -> float
val interval : t -> float

val admit_mutation : t -> bool
(** [false] from [Shed] up: fast-fail the mutation before the writer
    lock. One atomic load. *)

val accepting : t -> bool
(** [false] only at [Emergency]: stop accepting new connections (GET
    traffic on live connections keeps flowing). *)

val note_shed : t -> unit
val shed_total : t -> int
val transitions : t -> int

val register_instruments : t -> Rp_obs.Registry.t -> unit
(** Register [guard_state], [guard_state_peak], [guard_pressure],
    [guard_pressure_<source>], [guard_shed_total],
    [guard_transitions_total], [guard_sweeps_total]. *)

val stats_kv : t -> (string * string) list
(** Live [stats guard] lines (state name, per-source pressures, …). *)
