(** Deterministic, seeded failpoint plane (kernel fail-points, userspace).

    A failpoint {e site} is a named hook compiled into production code:
    [Rp_fault.point "rp_ht.unzip.splice"]. Sites cost one atomic load when
    nothing is armed, so they stay in release builds. Tests and the torture
    harness {e arm} a site with a trigger (when to fire) and an action (what
    to do), then drive the system and assert its invariants survived.

    Site naming convention: ["<layer>.<operation>.<moment>"] —
    ["rcu.synchronize.pre"], ["rp_ht.unzip.splice"],
    ["server.write.partial"], ["server.conn.reset"], …

    Determinism: probabilistic triggers draw from a per-site SplitMix64
    stream seeded at {!arm} time, so a fixed seed yields the same fire
    pattern for the same sequence of evaluations. (Under concurrency the
    interleaving of evaluations is, of course, scheduler-dependent.)

    The registry is global and thread-safe; actions run outside the
    registry lock, so a [Delay] at one site never blocks another site. *)

exception Injected of string
(** Raised by a fired site whose action is {!Raise}; the payload is the
    site name. Code under fault injection treats this as "the thread
    crashed here". *)

(** What a fired site does. *)
type action =
  | Delay of float  (** sleep that many seconds *)
  | Yield  (** [Thread.yield] — perturb scheduling only *)
  | Raise  (** raise {!Injected} with the site name *)
  | Truncate_io of int
      (** cap the byte count of an I/O operation routed through {!io_cap};
          meaningless (a no-op) at a plain {!point} *)

(** When an armed site fires. *)
type trigger =
  | Always
  | Every of int  (** every [n]th evaluation ([n >= 1]) *)
  | Probability of float  (** each evaluation independently, seeded PRNG *)
  | One_shot  (** the next evaluation only, then the site disarms itself *)

val arm : ?seed:int -> string -> trigger:trigger -> action:action -> unit
(** Arm a site (creating it on first mention) and zero its counters. The
    PRNG behind [Probability] is reseeded from [seed] (default: a hash of
    the site name). Raises [Invalid_argument] on [Every n] with [n < 1] or
    a probability outside [0, 1]. *)

val disarm : string -> unit
(** Stop a site from firing. Counters are kept until {!reset} or a
    re-{!arm}. Unknown sites are ignored. *)

val reset : unit -> unit
(** Disarm every site and forget all counters — call between test runs. *)

val armed : string -> bool
val armed_sites : unit -> string list
(** Currently armed site names, sorted. *)

val hits : string -> int
(** Evaluations of the site while armed (0 for unknown sites). *)

val fires : string -> int
(** Evaluations that triggered the action. *)

val point : string -> unit
(** The hook: no-op unless the site is armed and its trigger fires, in
    which case the action runs here ([Delay]/[Yield]/[Raise]). Every fire
    also records a ["fault.<site>"] {!Rp_trace} instant, so torture
    timelines show where faults landed. *)

val io_cap : string -> int -> int
(** [io_cap site len] is the hook for I/O sites: returns how many bytes
    the caller may transfer in this call — [len] normally, [min cap len]
    (at least 1) when a [Truncate_io cap] fires. Other actions behave as
    at a {!point} (so a [Raise] here models a torn connection). *)
