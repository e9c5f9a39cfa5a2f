(** Common signature for every hash-table implementation under benchmark.

    The benchmark harness drives all algorithms — the paper's contribution
    and each baseline — through this one interface, so a figure is just
    "same workload, different first-class module". *)

module type TABLE = sig
  type ('k, 'v) t

  val name : string
  (** Short identifier used in benchmark output ("rp", "ddds", "rwlock", …). *)

  val create :
    hash:('k -> int) -> equal:('k -> 'k -> bool) -> size:int -> unit -> ('k, 'v) t
  (** Create a table with [size] buckets (rounded to a power of two).
      Auto-resizing, where supported, is off: benches control size
      explicitly. *)

  val find : ('k, 'v) t -> 'k -> 'v option
  (** Lookup, safe to call from any domain concurrently with updates. *)

  val insert : ('k, 'v) t -> 'k -> 'v -> unit
  (** Insert or overwrite a binding. *)

  val remove : ('k, 'v) t -> 'k -> bool
  (** Remove a binding if present. *)

  val resize : ('k, 'v) t -> int -> unit
  (** Resize to the given bucket count. Implementations that cannot resize
      raise [Invalid_argument]. *)

  val size : ('k, 'v) t -> int
  (** Current bucket count. *)

  val length : ('k, 'v) t -> int
  (** Current number of bindings (approximate under concurrency). *)

  val reader_exit : ('k, 'v) t -> unit
  (** The calling domain will stop reading (blocking indefinitely or
      exiting). Tables on QSBR RCU take their domain offline so grace
      periods stop waiting for it; every other implementation is a no-op.
      Reading again later is allowed. *)
end

type table = (module TABLE)
