(** The expansion "unzip" — the paper's key algorithmic step, isolated for
    white-box testing.

    After an expansion publishes a double-size bucket array whose buckets
    point into the middle of the old ("zipped") chains, each old chain
    interleaves runs of nodes destined for two different new buckets. The
    unzip separates them {e in place}, one splice per chain per pass, with a
    wait-for-readers between passes (performed by the caller, once per pass,
    covering all chains).

    A chain's unzip position is a link: the node its next splice examines,
    or [Null] once the chain is precise. It starts at the old chain's head.
    A single {!step} at node [p]:

    + advance to the end of [p]'s run (consecutive nodes with [p]'s
      destination bucket);
    + if the chain ends there, the chain is fully unzipped — [Null];
    + otherwise the next node [q] starts a run for the other bucket: find
      that run's end, and splice the run out of [p]'s chain by pointing the
      end of [p]'s run at the first node after [q]'s run;
    + the next step (after a grace period) continues from [q].

    The grace period between steps is what keeps readers safe: a reader that
    entered [q]'s run from [p]'s side before the splice still relies on
    [q]'s run's outgoing pointer; only after all such readers finish may that
    pointer be redirected by the following step. *)

val step :
  dest:(('k, 'v) Rp_list.node -> int) -> ('k, 'v) Rp_list.link -> ('k, 'v) Rp_list.link
(** Perform one splice (or discover completion) at a position and return
    the next position; [step ~dest Null] is [Null]. [dest] maps a node to
    its new bucket index. Allocates nothing. The caller must hold the
    table's writer lock and must run a grace period between consecutive
    steps on the same chain. *)

val chain_is_precise :
  dest:(('k, 'v) Rp_list.node -> int) -> ('k, 'v) Rp_list.link -> bool
(** [true] iff every node reachable from the link has the same destination —
    i.e. the chain needs no (further) unzipping. For tests. *)
