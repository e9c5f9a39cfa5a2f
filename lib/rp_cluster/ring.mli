(** Ketama-style consistent-hash ring with virtual nodes.

    Each member contributes [~points_per_weight * weight] points (MD5
    continuum, four points per digest like libmemcached), so membership
    change remaps only the keys owned by the changed member — about
    [K/N] of [K] keys over [N] equal-weight members. The ring is
    immutable; client-side ejection is expressed through the [avoid]
    predicate at lookup time, which slides a dead member's keys to the
    next live point without touching anyone else's assignment. *)

type member = { host : string; port : int; weight : int }

type t

val create : ?points_per_weight:int -> member list -> t
(** Build the continuum ([points_per_weight] defaults to 100). Member
    order is preserved: lookups return indices into this list. *)

val members : t -> member list
val member : t -> int -> member
val size : t -> int

val points : t -> int
(** Continuum entries (diagnostics). *)

val hash_key : string -> int
(** The 32-bit ketama key hash (first four MD5 bytes, little-endian). *)

val lookup : ?avoid:(int -> bool) -> t -> string -> int option
(** Index of the member owning [key], skipping members for which
    [avoid] holds; [None] when the ring is empty or everything is
    avoided. *)
