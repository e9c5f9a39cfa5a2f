(** Striped monotonic counter.

    Increments are a single unsynchronized store to the calling domain's
    cache-line-padded stripe cell ({!Stripe}); reads sum the stripes.
    Suited to hot paths — a wait-free table lookup can count itself
    without adding a shared atomic read-modify-write. *)

type t

val create : unit -> t

val incr : t -> unit
(** Add 1 to the calling domain's stripe. No-op while the plane is
    disabled ({!Stripe.set_enabled}). *)

val incr_get : t -> int
(** {!incr}, returning the calling domain's new stripe value — a count of
    this domain's events that a caller can sample on without a second
    stripe lookup. [-1] while the plane is disabled. *)

val add : t -> int -> unit
(** Add [n] (callers should keep counters monotonic: [n >= 0]). *)

val read : t -> int
(** Sum of all stripes. A relaxed snapshot: may trail concurrent
    increments, exact once writers have synchronized with the caller
    (e.g. after [Domain.join] or under a shared mutex). *)

val reset : t -> unit
(** Zero every stripe. For tests; racy against concurrent increments. *)
