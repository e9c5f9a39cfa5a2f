(** A stored cache item.

    Immutable payload (the value's slab chunk and length, [flags],
    expiry) plus one mutable word the
    RP GET fast path writes from inside a read-side critical section: the
    CLOCK access stamp [last_access]. Times are immediate ints ({!time}),
    so a GET hit neither loads a boxed float nor allocates one. *)

type location =
  | Hot  (** value in the slab chunk [chunk] *)
  | Cold of { segment : int; offset : int; len : int }
      (** value demoted to the disk tier; the item has no chunk, its
          [len] is 0, and these plain
          ints name the segment frame holding it (see {!Rp_tier.location}
          — kept as bare ints so this module has no tier dependency).
          Flags, expiry and CAS stay in RAM either way. *)

type time = int
(** Seconds since the Unix epoch in binary fixed point, 2{^-22} s (about
    238 ns) per unit. 0 is the epoch itself, which as an expiry means
    "never". *)

type t = {
  flags : int;
  exptime : time;  (** absolute expiry; 0 = never *)
  chunk : int;
      (** the {!Slab} chunk holding the value ({!Slab.no_chunk} for an
          empty value or a cold marker): an immediate, so the value is
          no block of the OCaml heap. Only the store that allocated the
          chunk can read it. *)
  len : int;  (** value length in bytes *)
  cas : int;  (** unique version for compare-and-swap (gets/cas) *)
  mutable last_access : time;
      (** CLOCK access stamp. Plain, unsynchronised stores from
          concurrent readers: a reader may overwrite a newer stamp with
          its own slightly older one, or the eviction sweep may read a
          stamp one GET behind. Either race can only change one
          second-chance decision for this item — it never affects what a
          GET returns. *)
  location : location;
}

val time_of_float : float -> time
(** Unix seconds to an item time. Exact (and inverted exactly by
    {!float_of_time}) for every float from 2{^30} s — January 2004 — up
    to 2{^40} s, where it saturates at [max_int]. Any positive input maps
    to at least 1, so a positive expiry never becomes "never"; zero,
    negative and NaN inputs map to 0. *)

val float_of_time : time -> float
(** Item time back to Unix seconds (the persistence records' unit). *)

val make :
  ?cas:int ->
  ?location:location ->
  chunk:int ->
  flags:int -> exptime:time -> len:int -> now:time -> unit -> t
(** [location] defaults to {!Hot}; [now] is the initial access stamp. *)

val note_restored_cas : int -> unit
(** Tell the CAS allocator a recovered item carries [cas], so versions
    minted after a warm restart stay unique (monotonic past any replayed
    value). Thread-safe. *)

val is_expired : t -> now:time -> bool
(** [exptime] set and not after [now]: an item expiring at [now] is
    already expired. *)

val is_cold : t -> bool
(** True when the value lives in the disk tier ([location <> Hot]). *)

val touch_access : t -> now:time -> unit
(** Raise [last_access] to [now]; callable from concurrent lock-free
    readers (see the field's note on the benign race). *)

val size_bytes : key:string -> t -> int
(** Approximate memory footprint used for the eviction budget: key + value +
    a fixed per-item overhead (matching memcached's accounting style). *)

val footprint : key_len:int -> t -> int
(** {!size_bytes} for a key of [key_len] bytes. *)

val overhead_bytes : int
