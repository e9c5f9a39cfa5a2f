(** Domain orchestration for throughput measurements.

    Spawns one domain per worker, aligns their start on a barrier, lets them
    run for a fixed duration, raises a stop flag, joins, and reports per-
    worker operation counts. Workers poll the stop flag; the harness never
    interrupts them mid-operation. *)

type outcome = {
  per_worker_ops : int array;  (** operations completed by each worker *)
  elapsed : float;  (** measured wall-clock seconds between start and stop *)
}

val run :
  duration:float -> workers:(stop:bool Atomic.t -> int) array -> unit -> outcome
(** [run ~duration ~workers ()] executes all workers concurrently for
    [duration] seconds. Each worker receives the shared stop flag and must
    return its operation count when the flag goes up. If a worker raises,
    [run] still joins every domain, then re-raises the first exception in
    worker order. *)

val total_ops : outcome -> int
val throughput : outcome -> float
(** Aggregate operations per second. *)

val loop_until_stop : stop:bool Atomic.t -> f:(unit -> unit) -> int
(** Helper for writing workers: repeatedly call [f], checking the flag
    every iteration; returns the iteration count. *)

val loop_batched : stop:bool Atomic.t -> batch:int -> f:(unit -> unit) -> int
(** Like {!loop_until_stop} but checks the stop flag once per [batch]
    iterations, keeping flag-polling off the hot path. *)
