(** A stored cache item: one {!Slab} chunk holding a header and the
    value, after stock memcached's item layout.

    The header is five words: the CLOCK access stamp, the absolute
    expiry, the CAS, the client flags and the value length. The store's
    table binds a key to the chunk's id ({!t}), an immediate: a SET
    allocates a chunk, writes header and value with one copy, and
    publishes the id, so it puts nothing on the OCaml heap for the GC to
    promote. A {e cold marker} (the value demoted to the disk tier) is a
    chunk holding only the header, with the segment frame that holds the
    value; flags, expiry and CAS stay in RAM either way.

    {b The reader's rule.} Every accessor reads the chunk, so it must run
    inside the read-side critical section that loaded the id, or under a
    lock that keeps the item in its table: once the item leaves the
    table, its chunk is reused after a grace period ({!retire}) or at
    once ({!free}). Only the access stamp is written after publication
    ({!touch_access}).

    Every function takes the {!Slab.t} the chunk was allocated from: the
    store's own, whose chunks are word-aligned. *)

type t = private int
(** A chunk id: the item's name in its slab. *)

type time = int
(** Seconds since the Unix epoch in binary fixed point, 2{^-22} s (about
    238 ns) per unit. 0 is the epoch itself, which as an expiry means
    "never". *)

val time_of_float : float -> time
(** Unix seconds to an item time. Exact (and inverted exactly by
    {!float_of_time}) for every float from 2{^30} s — January 2004 — up
    to 2{^40} s, where it saturates at [max_int]. Any positive input maps
    to at least 1, so a positive expiry never becomes "never"; zero,
    negative and NaN inputs map to 0. *)

val float_of_time : time -> float
(** Item time back to Unix seconds (the persistence records' unit). *)

val header_bytes : int
(** Bytes of a chunk before the value. A value of [len] bytes takes a
    chunk of the smallest class holding [header_bytes + len]. *)

(** {1 Making items} *)

val create :
  Slab.t -> ?cas:int -> flags:int -> exptime:time -> now:time -> Bytes.t -> int -> int -> t
(** [create slab ~flags ~exptime ~now src off len]: a hot item holding a
    copy of [len] bytes of [src] from [off], its header and value written
    into a fresh chunk by one copy. [cas] defaults to a fresh version;
    [now] is the initial access stamp. Raises [Invalid_argument] for a
    slice outside [src] or a value too large for the largest chunk. *)

val of_string : Slab.t -> ?cas:int -> flags:int -> exptime:time -> now:time -> string -> t
(** {!create} over a whole string. *)

val cold :
  Slab.t -> cas:int -> flags:int -> exptime:time -> now:time -> int * int * int -> t
(** A cold marker for the value held in segment frame
    [(segment, offset, len)] of the disk tier (see {!Rp_tier.location};
    bare ints, so this module has no tier dependency). Its {!len} is 0. *)

val note_restored_cas : int -> unit
(** Tell the CAS allocator a recovered item carries [cas], so versions
    minted after a warm restart stay unique (monotonic past any replayed
    value). Thread-safe. *)

(** {1 The header} *)

val flags : Slab.t -> t -> int

val exptime : Slab.t -> t -> time
(** Absolute expiry; 0 = never. *)

val cas : Slab.t -> t -> int
(** Unique version for compare-and-swap (gets/cas). *)

val len : Slab.t -> t -> int
(** Value length in bytes; 0 for a cold marker. *)

val last_access : Slab.t -> t -> time
(** The CLOCK access stamp. Plain, unsynchronised stores from concurrent
    readers: a reader may overwrite a newer stamp with its own slightly
    older one, or the eviction sweep may read a stamp one GET behind.
    Either race can only change one second-chance decision for this
    item — it never affects what a GET returns. *)

val is_cold : Slab.t -> t -> bool
(** True for a cold marker: the value lives in the disk tier. *)

val location : Slab.t -> t -> (int * int * int) option
(** A cold marker's segment frame [(segment, offset, len)]; [None] for a
    hot item. *)

val expired : time -> now:time -> bool
(** An expiry set and not after [now]: an item expiring at [now] is
    already expired. *)

val is_expired : Slab.t -> t -> now:time -> bool
(** {!expired} of the item's expiry. *)

val touch_access : Slab.t -> t -> now:time -> unit
(** Raise the access stamp to [now]; callable from concurrent lock-free
    readers (see {!last_access} on the benign race). *)

(** {1 Accounting} *)

val footprint : Slab.t -> key_len:int -> t -> int
(** Approximate memory footprint used for the eviction budget, for a key
    of [key_len] bytes: key + value + a fixed per-item overhead
    (matching memcached's accounting style). *)

val overhead_bytes : int

(** {1 The value} *)

val value : Slab.t -> t -> string
(** A fresh copy of the value ("" for a cold marker). *)

val serve :
  Slab.t -> t -> now:time -> flags:int array -> cas:int array -> int -> Bytes.t -> int -> int
(** [serve slab t ~now ~flags ~cas j vbuf fill]: a GET hit in one call,
    with no allocation. Unless the item has expired at [now] (-2 is
    returned) or is a cold marker (-3), its access stamp is raised to
    [now], its flags and CAS are stored at [flags.(j)] and [cas.(j)], its
    value is copied into [vbuf] at [fill] and its length returned. A
    value that does not fit in [vbuf] past [fill] is not copied, nothing
    is stored, and [-4 - len] is returned. Raises [Invalid_argument] for
    [j] outside an array or [fill] outside [vbuf]. *)

val prefetch : Slab.t -> t -> int -> unit
(** [prefetch slab t n]: cache hints for the header and the value's first
    [n] bytes. *)

(** {1 Release} *)

val free : Slab.t -> t -> unit
(** {!Slab.free}: the chunk is reused at once (every reader copies under
    the writers' lock). *)

val retire : Slab.t -> Rcu.t -> t -> unit
(** {!Slab.retire}: the chunk is reused once every reader of the RCU
    instance that may hold it has left its read section. *)
