(** Per-domain stripe slots shared by every striped instrument.

    A domain claims a slot on first use of any instrument (the same
    slot-registry idiom as [Rcu]'s reader slots, cached in domain-local
    state and released by a [Domain.at_exit] hook). While a domain is
    live it owns its slot exclusively, so striped instruments can record
    with plain unsynchronized stores — no atomic read-modify-write, no
    sharing — and still sum exactly once writers have quiesced (e.g.
    after [Domain.join]). *)

val capacity : int
(** Number of stripe slots (128, the runtime's domain ceiling). *)

val stride : int
(** Words between consecutive stripe cells in a flat [int array]: one
    64-byte cache line, preventing false sharing between domains. *)

val index : unit -> int
(** The calling domain's slot, in [0, capacity). Registers on first call.
    If every slot is taken (more than {!capacity} concurrently-live
    domains), returns a shared round-robin slot; instruments then
    undercount under write races but never crash. *)

(** {1 Global enable switch} *)

val set_enabled : bool -> unit
(** Turn the whole observability plane on or off. Disabled instruments
    cost one atomic load and a branch per record call. On by default. *)

val is_enabled : unit -> bool
