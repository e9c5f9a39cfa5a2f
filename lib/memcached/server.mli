(** memcached server: request dispatch plus a socket front end.

    {!handle} is the pure dispatch used by the socket plane and the
    in-process benchmark loopback. {!start} listens and runs an accept
    loop that hands each admitted socket to the sharded event loop
    ({!Evloop}): worker domains with private poll sets, pipelined batch
    dispatch, coalesced writes, and per-worker QSBR discipline for
    zero-cost GET read sections (pair it with a {!Store.rcu_mode} [Qsbr]
    store; a [Memb] store serves too, with ordinary read sections). *)

val version_string : string

val handle : Store.t -> Protocol.request -> Protocol.response option
(** Execute one request. [None] means no response is sent (noreply flag, or
    [Quit], which the connection loop treats as close). *)

type t

type address = Unix_socket of string | Tcp of int | Inet of string * int
(** [Tcp port] binds/connects loopback; [Inet (host, port)] names a
    remote (or any resolvable) endpoint — the cluster plane's address
    shape. *)

val sockaddr_of : address -> Unix.socket_domain * Unix.sockaddr
(** Resolve an address to its socket domain and sockaddr (numeric hosts
    first, then [gethostbyname]). *)

type config = {
  max_connections : int;
      (** beyond this many live connections, new ones are rejected with
          [SERVER_ERROR too many connections] and closed *)
  max_inflight : int;
      (** admission cap {e below} [max_connections]: past it new
          connections are rejected with [SERVER_ERROR overloaded] (the
          hard cap keeps its own message). [0] (default) disables *)
  idle_timeout : float;
      (** seconds a connection may sit without sending bytes before the
          server closes it; [0.] disables (default) *)
  listen_backlog : int;  (** [listen(2)] backlog (default 64) *)
  read_buffer_size : int;
      (** per-connection read size in bytes (default 16 KiB) *)
  workers : int;
      (** event-loop worker domains; [0] (default) means
          [Domain.recommended_domain_count ()] *)
  conn_write_cap : int;
      (** per-connection pending-write byte cap (default 1 MiB; [0] =
          unlimited). See {!Evloop.config.conn_write_cap} *)
  drain_deadline : float;
      (** kill a backed-up connection making no progress for this many
          seconds (default 30; [<= 0] disables). See
          {!Evloop.config.drain_deadline} *)
}

val default_config : config
(** 1024 connections, no inflight cap, no idle timeout, backlog 64,
    16 KiB reads, one worker per recommended domain, 1 MiB write cap,
    30 s drain deadline. Accepted TCP sockets always get TCP_NODELAY, so
    pipelined responses are not held back by coalescing timers.

    A socket whose descriptor the workers' poll set cannot hold
    ({!Evloop.pollable}: 1024 and up) is refused like one past
    [max_connections], with [SERVER_ERROR too many connections], and
    counted in {!rejected_connections}. While the process is out of
    descriptors ([EMFILE]/[ENFILE]), the accept loop pauses 10 ms after
    each failed [accept(2)] instead of retrying at once, and counts the
    failure in [server_accept_fd_exhausted_total].

    When a {!Store.guard} is attached and in [Emergency], new connections
    are refused with [SERVER_ERROR overloaded] regardless of the caps —
    established connections keep serving (GETs stay wait-free; mutations
    shed in {!handle}). *)

val start : store:Store.t -> ?config:config -> address -> t
(** Start listening and serving connections (the accept loop runs on a
    background thread; connections are served by the event-loop worker
    domains). Connection I/O runs through the failpoint sites
    ["server.read.split"], ["server.write.partial"], and
    ["server.conn.reset"] (see {!Rp_fault}), so tests can split reads,
    shorten writes, or tear connections. *)

val stop : t -> unit
(** Close the listener, wait for the accept loop to exit, then close
    every connection and join the worker domains: when [stop] returns,
    no server thread or domain is left running. *)

val active_connections : t -> int
(** Currently live connections. *)

val capacity : t -> int
(** The effective admission cap: [max_inflight] when set, else
    [max_connections] — the denominator of the guard's connection
    pressure. *)

val rejected_connections : t -> int
(** Connections turned away at accept so far (by either cap, the poll
    set's descriptor limit, or the guard). *)

val address : t -> address
(** The bound address. A [Tcp 0] / [Inet (host, 0)] request (OS-assigned
    port) is resolved to the port the kernel actually picked. *)

val workers : t -> int
(** Event-loop worker domains serving this instance. *)
