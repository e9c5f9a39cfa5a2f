(** Sharded event-loop network plane.

    [workers] domains each own a private poll set; accepted sockets are
    sharded onto the least-loaded worker. A wakeup drains every complete
    pipelined request on a socket, dispatches them as one batch, and
    coalesces the responses into a single write. Workers follow QSBR
    discipline: one registration per domain, offline around the poll
    wait, so GET read sections stay zero-cost and a parked worker never
    stalls a grace period.

    {!Server} owns listening/accepting (and the connection cap); this
    module owns serving. *)

type config = {
  workers : int;  (** worker domains; [>= 1] (resolved by the caller) *)
  idle_timeout : float;  (** seconds; [<= 0] disables the idle sweep *)
  read_buffer_size : int;  (** per-connection read buffer, bytes *)
  conn_write_cap : int;
      (** per-connection pending-write byte cap: past it the worker stops
          rendering (requests stay parsed-but-deferred) so one
          non-draining client can't pin coalescer memory. [0] = unlimited *)
  drain_deadline : float;
      (** kill a backed-up connection that makes no progress in either
          direction for this many seconds ([guard_slow_client_kills_total]
          counts them). [<= 0] disables the kill sweep *)
}

type t

val create : store:Store.t -> config -> t
(** Spawn the worker domains and register the plane's instruments
    ([server_worker_wakeups_total], [server_batch_requests],
    [server_read_syscalls_total], [server_write_syscalls_total],
    [server_event_workers], per-worker connection gauges) in the store's
    registry. *)

val pollable : Unix.file_descr -> bool
(** Whether a worker's poll set can hold this descriptor: [select]
    takes only descriptors below [FD_SETSIZE] (1024), and one past it
    fails the whole call. {!Server} refuses any other socket at accept. *)

val submit : t -> id:int -> Unix.file_descr -> unit
(** Hand an accepted socket to the least-loaded worker. Ownership
    transfers: the worker makes it non-blocking, serves it, and closes
    it. [fd] must be {!pollable}. [id] tags the ["server.conn.drop"] and
    ["server.conn.slow_kill"] trace instants. *)

val live_connections : t -> int
val worker_count : t -> int

val stop : t -> unit
(** Stop every worker, close all owned sockets (inbox stragglers
    included) and the wake pipes, and join the domains. *)
