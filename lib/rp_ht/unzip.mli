(** The expansion "unzip" — the paper's key algorithmic step, isolated for
    white-box testing.

    After an expansion publishes a double-size bucket array whose buckets
    point into the middle of the old ("zipped") chains, each old chain
    interleaves runs of nodes destined for two different new buckets. The
    unzip separates them {e in place}, one splice per chain per pass, with a
    wait-for-readers between passes (performed by the caller, once per pass,
    covering all chains).

    A single {!step} on a chain positioned at node [p]:

    + advance to the end of [p]'s run (consecutive nodes with [p]'s
      destination bucket);
    + if the chain ends there, the chain is fully unzipped — done;
    + otherwise the next node [q] starts a run for the other bucket: find
      that run's end, and splice the run out of [p]'s chain by pointing the
      end of [p]'s run at the first node after [q]'s run;
    + the next step (after a grace period) continues from [q].

    The grace period between steps is what keeps readers safe: a reader that
    entered [q]'s run from [p]'s side before the splice still relies on
    [q]'s run's outgoing pointer; only after all such readers finish may that
    pointer be redirected by the following step. *)

type ('k, 'v) state =
  | Done  (** chain fully unzipped *)
  | At of ('k, 'v) Rp_list.node
      (** next splice examines the run starting at this node (a [Node]) *)

val start : ('k, 'v) Rp_list.link -> ('k, 'v) state
(** Initial state for an old chain: its head node, or [Done] if empty. *)

val step :
  dest:(('k, 'v) Rp_list.node -> int) -> ('k, 'v) state -> ('k, 'v) state
(** Perform one splice (or discover completion). [dest] maps a node to its
    new bucket index. The caller must hold the table's writer lock and must
    run a grace period between consecutive steps on the same chain. *)

val is_done : ('k, 'v) state -> bool

val chain_is_precise :
  dest:(('k, 'v) Rp_list.node -> int) -> ('k, 'v) Rp_list.link -> bool
(** [true] iff every node reachable from the link has the same destination —
    i.e. the chain needs no (further) unzipping. For tests. *)
