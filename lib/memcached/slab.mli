(** Slab-class memory accounting, after stock memcached's slab allocator.

    memcached never allocates items exactly: it rounds each item up to the
    chunk size of a {e slab class} (a geometric ladder of sizes), carving
    1 MiB pages into equal chunks. The difference between an item's size
    and its chunk is internal fragmentation — visible in `stats slabs` and
    decisive for when eviction starts.

    OCaml's GC owns the real memory, so this module reproduces the
    {e accounting}: the store charges each item to its class and evicts
    against chunk bytes, not raw bytes, matching stock behaviour. *)

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
