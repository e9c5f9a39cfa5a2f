(** Cluster glue: op-log replication wired into a store.

    Two roles:

    - {!lead}: run the leader-side replication listener
      ({!Rp_cluster.Repl_leader}) next to a {!Persist} manager. Every
      record that reaches the op log is also published to connected
      followers — the persist tap runs inside the store's serialization
      lock, so stream order is exactly log order — and followers that
      are behind catch up from the op-log segments on disk.
    - {!follow}: run a following replica. The store flips read-only
      (client mutations get [SERVER_ERROR replica is read-only]), a
      {!Rp_cluster.Repl_follower} applies the stream through
      {!Store.replicate} (which re-logs into the follower's own op log,
      keeping it promotable), and [cluster promote] — wired through
      {!Store.set_promote_hook} — stops the stream and opens the write
      path.

    Both roles publish their live state through [stats cluster]
    ({!Store.set_section}) and register [cluster_*] instruments in the
    store's registry. The leader trace id rides the stream: a sampled
    leader request and the follower's apply span share a trace id in the
    Perfetto export. *)

type t

type role = Leader | Replica | Promoted

val lead : store:Store.t -> persist:Persist.t -> Unix.sockaddr -> t
(** Start the replication listener on the given address (port 0 picks a
    free port — see {!repl_port}) and install the persist tap. Requires
    the persistence manager to have its op log enabled (followers catch
    up from the segments in {!Persist.dir}). *)

val follow :
  store:Store.t -> ?persist:Persist.t -> leader:Unix.sockaddr -> unit -> t
(** Connect to a leader's replication listener and apply its stream.
    [persist] is unused directly (the store's persist hook already
    re-logs applied records) but documents the intended deployment:
    attach persistence first so the replica is durable and promotable. *)

val promote : t -> (string, string) result
(** Stop following and open the write path ([Error] for a leader or an
    already promoted node). Also reachable as the [cluster promote]
    admin command via {!Store.promote}. *)

val role : t -> role
val repl_port : t -> int
(** The leader listener's bound port (0 for a follower). *)

val applied : t -> int
(** Records applied from the stream (0 for a leader). *)

val connected : t -> bool
(** Follower: is the replication link up. Leader: always true. *)

val stop : t -> unit
(** Leader: uninstall the tap, close the listener and follower links.
    Follower: stop the replication client (unless already promoted, in
    which case it is gone). Idempotent. *)
