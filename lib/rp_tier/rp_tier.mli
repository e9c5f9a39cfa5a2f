(** Cold tier under the relativistic table: an append-only value-segment
    store for datasets larger than RAM.

    Keys never leave the RP table. When the store demotes a victim, the
    item's in-memory value is replaced by a compact location record and
    the (key, value) pair is appended — CRC-framed, like every durable
    byte in this stack — to the current {e segment} file. A cold GET is
    then one relativistic lookup plus one positioned read; promotion
    reinserts the value under the key's write stripe.

    The tier is a cache, not the durability plane: the op log already
    holds every acked SET in full, so segments are never fsynced and a
    crash costs nothing but warmth. Per-segment live-byte accounting
    drives copying compaction: deletes and overwrites {!Cold_store.mark_dead}
    their location, and a mostly-dead sealed segment is rewritten (live
    records re-appended to the head) and unlinked.

    On-disk layout: [<dir>/tier-<gen>.seg], each a sequence of
    {!Rp_persist.Frame}s whose payload is [[u32 klen][key][data]]. A
    {!location} names the frame — segment generation, byte offset of the
    frame header, whole-frame length — so a read is exactly one
    [pread]-shaped slice, verified by the frame CRC before use.

    Failpoints: ["tier.segment.append"] (an {!Rp_fault.io_cap} site on
    the segment write — [Truncate_io] tears the frame, [Raise] models a
    crash mid-demotion) and ["tier.read.torn"] (a {!Rp_fault.point} in
    the read path; a fire surfaces as {!Torn}). *)

type location = { segment : int; offset : int; len : int }
(** A demoted value's address: generation of its segment file, byte
    offset of its frame, and whole-frame length (header included). *)

type read_error =
  | Gone  (** segment no longer exists (compacted away) — re-resolve *)
  | Torn  (** frame failed its CRC / bounds check — the value is lost *)

(** The tier abstraction: what the hot store needs from a colder layer.
    [Cold_store] below is the disk implementation; the signature keeps
    the store glue implementation-agnostic (a future tier could be a
    remote peer or an object store). *)
module type TIER = sig
  type t

  val append :
    t -> key:string -> data:string -> (location, [ `Full | `Failed of string ]) result
  (** Demote one value. [`Full] when the byte budget is exhausted (the
      caller should fall back to plain eviction); [`Failed] on an I/O
      error (the head segment is sealed and a fresh one opened, so the
      next append lands on clean bytes). *)

  val read : t -> location -> (string * string, read_error) result
  (** [(key, data)] at a location. Lock-free against appends: the only
      shared state touched is the segment directory lookup. *)

  val mark_dead : t -> location -> unit
  (** The location is no longer referenced (its key was deleted,
      overwritten, promoted, or relocated). A sealed segment whose last
      live byte dies is unlinked on the spot. *)

  val total_bytes : t -> int
  val live_bytes : t -> int
  val segment_count : t -> int
  val close : t -> unit
end

module Cold_store : sig
  include TIER

  val open_ :
    ?segment_bytes:int -> dir:string -> max_bytes:int -> unit -> (t, string) result
  (** Open (creating [dir] if needed) and index any segments left by a
      previous run. Pre-existing segments are {e unrecovered} — their
      live maps are unknown — until {!finish_recovery} walks them; until
      then they are readable but never dropped. [segment_bytes] caps one
      segment file (default [max 65536 (max_bytes / 8)]), [max_bytes]
      the whole tier. *)

  val finish_recovery : t -> is_live:(string -> location -> bool) -> int
  (** Rebuild the live map of every unrecovered segment by walking its
      frames and asking [is_live key loc] — the store-side check "does
      the table still hold a cold marker for exactly this location?".
      Fully-dead segments are unlinked. Returns the number of segments
      dropped. Call after the store's own recovery has replayed. *)

  val segment_entries : t -> int -> (location * string * string) list
  (** Every decodable [(location, key, data)] frame in a segment, in
      file order, stopping at a torn tail. Dead records included — the
      compactor filters against the table's markers. *)

  val compact_candidate : t -> min_dead_ratio:float -> int option
  (** The sealed, recovered segment with the highest dead ratio, if any
      is at least [min_dead_ratio] dead. The head is never a candidate. *)

  val dir : t -> string
end

val append_site : string
(** ["tier.segment.append"]. *)

val read_torn_site : string
(** ["tier.read.torn"]. *)
