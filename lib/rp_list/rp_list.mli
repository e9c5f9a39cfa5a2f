(** Relativistic singly-linked list.

    Readers traverse with plain loads and never wait. Writers
    serialize on a per-list mutex and order their updates with publication
    and wait-for-readers, exactly as in the paper's insertion/removal
    examples:

    - {b insert}: initialise the node's [next], then publish the node by a
      single pointer store — readers either see it fully or not at all;
    - {b remove}: unlink by one pointer store (all future traversals miss the
      node), then wait for pre-existing readers before the node is considered
      reclaimable (here, before its [reclaimed] mark is set — the GC frees
      the memory, the mark lets tests assert use-after-free-freedom).

    The node representation is exposed because the relativistic hash table
    splices the same nodes between its bucket chains (shrink concatenates
    chains; expand "unzips" them). *)

type ('k, 'v) link =
  | Null
  | Node of {
      key : 'k;
      hash : int;  (** cached key hash; 0 for standalone lists *)
      mutable value : 'v;  (** in-place updatable payload *)
      mutable next : ('k, 'v) link;
      mutable reclaimed : bool;
          (** set after the grace period that follows unlinking; readers
              must never observe a node with this mark set *)
    }
(** A chain: [Null], or one node whose fields sit inline in the [Node]
    block — a reader reaches [key], [hash], [value] and [next] with one
    load of the link, and a bucket slot or [next] field points straight
    at the node.

    The shared fields are plain mutable fields, not [Atomic.t] cells.
    Writers publish by storing a pointer into [next] (or a bucket slot):
    that store is [caml_modify], a release store in OCaml 5, so every
    field of a node written before its publication is visible to a reader
    that loads the pointer (reader loads are address-dependent on that
    pointer). Whatever must be seen only {e after} a grace period —
    unlinks before a reclamation mark, one unzip splice before the next —
    is ordered by the RCU's own atomics: the writer's stores precede its
    grace-period bump, and a reader entering a section reads that bump. *)

type ('k, 'v) node = ('k, 'v) link
(** A link known to be a [Node] (what the helpers below expect). *)

val make_node : ?hash:int -> key:'k -> value:'v -> next:('k, 'v) link -> unit -> ('k, 'v) node
(** Allocate an unpublished node. *)

(** {1 Field access}

    For code outside a pattern match; each raises [Invalid_argument] on
    [Null]. *)

val key : ('k, 'v) node -> 'k
val hash : ('k, 'v) node -> int
val value : ('k, 'v) node -> 'v
val next : ('k, 'v) node -> ('k, 'v) link

val set_next : ('k, 'v) node -> ('k, 'v) link -> unit
(** Publish a new successor (a release store). Writers only. *)

val mark_reclaimed : ('k, 'v) link -> unit
(** Set the [reclaimed] mark (no-op on [Null]). Call only after the grace
    period that follows the node's unlinking. *)

(** {1 Link traversal helpers (read-side)} *)

val iter_links : f:(('k, 'v) node -> unit) -> ('k, 'v) link -> unit
(** Apply [f] to every node reachable from a link. Must run inside a
    read-side critical section if the chain is shared. *)

val length_link : ('k, 'v) link -> int

external prefetch : 'a -> (int[@untagged]) -> unit
  = "rp_list_prefetch_byte" "rp_list_prefetch"
  [@@noalloc]
(** [prefetch v off] hints that the byte [off] bytes past the start of
    block [v]'s first field will be loaded soon ([-8] is the header, which
    [String.length] and string comparison read first). It neither waits
    nor faults, and does nothing for an immediate ([Null], an int).
    Batched readers issue it inside their read section, on blocks the
    section pins, one stage ahead of the dependent load. *)

(** {1 Standalone list} *)

type ('k, 'v) t

val create : rcu:Rcu.t -> equal:('k -> 'k -> bool) -> unit -> ('k, 'v) t
(** A list whose readers are delimited by [rcu]'s critical sections and
    whose key comparisons use [equal]. *)

val rcu : ('k, 'v) t -> Rcu.t

val find : ('k, 'v) t -> 'k -> 'v option
(** Wait-free lookup: runs inside a read-side critical section of the
    list's RCU instance (registered for the calling domain on first use).
    The value is copied out before the section ends. *)

val mem : ('k, 'v) t -> 'k -> bool

val insert : ('k, 'v) t -> 'k -> 'v -> unit
(** Prepend a binding (duplicates allowed; [find] returns the newest). *)

val replace : ('k, 'v) t -> 'k -> 'v -> bool
(** Update the value of an existing binding in place; [true] if found,
    otherwise the binding is inserted and the result is [false]. *)

val remove : ('k, 'v) t -> 'k -> bool
(** Unlink the first binding for the key. Waits for readers before marking
    the node reclaimed. [true] if a binding was removed. *)

val remove_async : ('k, 'v) t -> 'k -> bool
(** Like {!remove} but defers the reclamation mark through [call_rcu]
    instead of blocking for a grace period. *)

val length : ('k, 'v) t -> int
(** Number of bindings (exact under quiescence; a snapshot otherwise). *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Snapshot of bindings in list order. *)

val iter : ('k, 'v) t -> f:('k -> 'v -> unit) -> unit
(** Iterate inside one read-side critical section. [f] must not block. *)

val head : ('k, 'v) t -> ('k, 'v) link Atomic.t
(** The head link, for white-box tests. *)

val validate_no_reclaimed : ('k, 'v) t -> bool
(** [true] iff no reachable node carries the [reclaimed] mark — the
    correctness invariant readers rely on. *)
