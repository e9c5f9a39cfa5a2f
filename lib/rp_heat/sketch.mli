(** Striped Space-Saving top-k sketch.

    Per-domain instances under the {!Rp_obs.Stripe} discipline: recording
    is plain stores into the calling domain's private instance, merging
    sums counts and error bounds across instances at read time. For any
    merged entry, [count - err <= true count <= count], and every key
    whose true frequency exceeds [N/k] of the merged stream is reported. *)

type t

type entry = {
  key : string;
  count : int;  (** estimated occurrences (an overestimate) *)
  err : int;  (** overestimation bound: [count - err <= true] *)
  exemplar : int;  (** last sampled trace id that touched the key; 0 = none *)
}

val create : k:int -> t
(** [create ~k] tracks up to [k] heavy hitters per domain. Raises
    [Invalid_argument] when [k <= 0]. *)

val record : t -> ?exemplar:int -> string -> unit
(** Count one occurrence in the calling domain's instance. A non-zero
    [exemplar] (a trace id) is remembered on the entry. No-op while the
    observability plane is disabled ({!Rp_obs.Stripe.set_enabled}). *)

val top : ?n:int -> t -> entry list
(** Merged heavy hitters, count-descending (key-ascending under ties),
    truncated to [n] when given. Relaxed like [Counter.read]: may trail
    concurrent recording, exact once recorders have quiesced. *)

val total : t -> int
(** Merged stream length: how many [record] calls the sketch absorbed. *)

val reset : t -> unit
(** Forget everything. Racy against concurrent recording. *)
