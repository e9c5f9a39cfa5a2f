(** Slab classes, after stock memcached's slab allocator: the memory
    accounting the eviction budget is charged in, and the off-heap pages
    that hold the items.

    memcached never allocates items exactly: it rounds each item up to the
    chunk size of a {e slab class} (a geometric ladder of sizes), carving
    1 MiB pages into equal chunks. The difference between an item's size
    and its chunk is internal fragmentation — visible in `stats slabs` and
    decisive for when eviction starts.

    {b Accounting.} The store charges each item (key + value + a fixed
    overhead, {!Item.footprint}) to its class and evicts against chunk
    bytes, not raw bytes, matching stock behaviour.

    {b Item memory.} Items — header and value, see {!Item} — live outside
    the OCaml heap, so the GC neither scans them nor counts them as live
    data when it paces itself. Each class owns 1 MiB pages — malloc'd
    memory, held by OCaml as immediates and freed when the slab is
    collected — carved into chunks of its size; an item takes one chunk
    of the class for its length ({!alloc}), named by an immediate int. A
    domain allocates from its own magazine per class, refilled from the
    class's free list under the class's mutex, so an allocation usually
    takes no lock and allocates nothing on the OCaml heap.

    A chunk is reused only after a grace period ({!retire}): a reader may
    still be reading the item it held. Retired chunks gather in the
    retiring domain's limbo batch; each full batch (64 chunks or 256 KiB)
    goes to {!Rcu.call_rcu} as one callback, which returns its chunks to
    the free lists and the batch itself to a pool it is taken from again.
    The reader's side of the bargain: every read of a chunk happens
    inside the read-side critical section that loaded its id, or under a
    lock that keeps the item in its table. Pages are never returned to
    the system. *)

type t

val create :
  ?base_chunk:int -> ?growth_factor:float -> ?max_chunk:int -> unit -> t
(** Defaults match memcached: 96-byte base chunk, 1.25 growth factor,
    1 MiB maximum item size. Raises [Invalid_argument] for a factor
    <= 1.0 or non-positive sizes. *)

val class_count : t -> int

val chunk_sizes : t -> int array
(** The size ladder, ascending. *)

val class_of_size : t -> int -> int option
(** Smallest class whose chunk holds [size] bytes; [None] if the item is
    larger than the maximum chunk (memcached refuses such items). *)

val fits : t -> int -> bool
(** [class_of_size t size <> None], without the option. *)

val chunk_size_of : t -> int -> int
(** Chunk size of a class index. *)

(** {1 Accounting} *)

val charge : t -> int -> int option
(** Account one item of [size] bytes: returns the chunk size charged, or
    [None] for oversize items. Thread-safe. *)

val refund : t -> int -> unit
(** Release the accounting for one item of [size] bytes (the same size that
    was charged). *)

val allocated_bytes : t -> int
(** Total chunk bytes currently charged (what eviction budgets compare). *)

val requested_bytes : t -> int
(** Total item bytes currently stored (excludes fragmentation). *)

val fragmentation : t -> float
(** [allocated / requested - 1]; 0 when empty. *)

type class_stats = {
  chunk_size : int;
  used_chunks : int;
  used_bytes : int;  (** requested bytes in this class *)
}

val stats : t -> class_stats list
(** Per-class usage, non-empty classes only, ascending chunk size. *)

(** {1 Value memory} *)

val no_chunk : int
(** The chunk of an empty value: names no memory. *)

val alloc : t -> int -> int
(** A chunk that holds [len] bytes, from the calling domain's magazine
    ({!no_chunk} for [len = 0]). Raises [Invalid_argument] when [len]
    exceeds the largest chunk. Thread-safe. *)

val blit : t -> int -> int -> Bytes.t -> int -> int -> unit
(** [blit t chunk at dst off len] copies the [len] bytes of [chunk] from
    byte [at] into [dst] at [off] (one memcpy). See the reader's rule
    above; items are written by {!Item.create}. *)

val prefetch : t -> int -> int -> unit
(** [prefetch t chunk len]: cache hints for every line of the first
    [len] bytes of [chunk], or of all of it when it is shorter; changes
    nothing, skips {!no_chunk}. *)

val chunk_bytes : t -> int -> int
(** The size of [chunk]'s class. *)

val free : t -> int -> unit
(** Return a chunk to its class at once: for a store whose readers copy
    values under the same lock its writers hold. Skips {!no_chunk}. *)

val retire : t -> Rcu.t -> int -> unit
(** Return a chunk to its class once every reader of [rcu] that may hold
    it has left its read section: through the calling domain's limbo
    batch and {!Rcu.call_rcu}. A writer that finds more than 16 MiB
    waiting waits with {!Rcu.barrier}, so it must not be inside a read
    section of [rcu]. Skips {!no_chunk}. *)

val address : t -> int -> int
(** [chunk]'s address for a C stub: an immediate whose raw word is the
    address with the low bit set (see slab_stubs.c), so the stub reads
    it with one mask. Needs an even offset in the page: the chunks of a
    slab whose chunk sizes are multiples of 8 (the default ladder's),
    which are also word-aligned. *)

val limbo_bytes : t -> int
(** Chunk bytes handed to {!Rcu.call_rcu} and not yet returned. *)

val pages : t -> int
(** Pages allocated so far (1 MiB each by default). *)
