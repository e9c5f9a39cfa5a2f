(** mc-benchmark-style load generator.

    Drives a {!Store.t} through the {e full protocol codec} — each operation
    encodes a request, parses it server-side, dispatches, encodes the
    response, and parses it client-side — so the measured path matches what
    a socket client exercises, minus the kernel. Workers run on separate
    domains, exactly like the paper's N mc-benchmark processes.

    A pure-GET run measures the paper's GET curves (global lock vs. RP fast
    path); a pure-SET run measures the SET curves. *)

type mode = Get_only | Set_only | Mixed of float  (** fraction of SETs *)

type config = {
  workers : int;
  duration : float;  (** seconds *)
  keyspace : int;
  value_size : int;  (** bytes per value *)
  mode : mode;
  seed : int;
  dist : Rp_workload.Keygen.dist;
      (** key popularity: [Uniform] (mc-benchmark's default) or
          [Zipfian theta] — the skewed workload that gives a tiered
          store its hot set *)
}

val default_config : config

type result = {
  requests : int;
  elapsed : float;
  requests_per_second : float;
  hits : int;
  misses : int;
}

val prefill : Store.t -> keyspace:int -> value_size:int -> unit
(** Populate every key so GET runs measure hits, as mc-benchmark does. *)

val run : store:Store.t -> config -> result

val run_backend :
  backend:Store.backend -> config -> result
(** Convenience: build a store, prefill it, run. *)

(** {1 Pipelined socket load}

    The wire-level companion to {!run}: real sockets against a running
    {!Server}, [pipeline] GETs per write (mc-benchmark's [-P]), responses
    drained in bulk — the workload the event-loop plane's batch dispatch
    exists for. One client domain per connection. *)

type socket_config = {
  connections : int;  (** concurrent client connections (one domain each) *)
  pipeline : int;  (** GETs per batch written before draining responses *)
  sduration : float;  (** seconds *)
  skeyspace : int;
  svalue_size : int;
  sseed : int;
  sdist : Rp_workload.Keygen.dist;  (** key popularity, as in {!config} *)
}

val socket_prefill :
  Server.address -> keyspace:int -> value_size:int -> unit
(** Populate every key over the wire (pipelined SETs on one connection) —
    never by touching the store in-process, so it is safe against a
    QSBR-mode store, whose participants are the server's worker domains. *)

val run_socket : Server.address -> socket_config -> result
(** Drive a running server with pipelined GETs; {!result.requests} counts
    individual GETs, not batches. *)

val run_servers : (string * int * int) list -> socket_config -> result
(** Multi-server mode ([--servers a:p1,b:p2]): each connection is a
    {!Client.of_servers} ring client; batches of [pipeline] keys are
    grouped by ring owner and pipelined per member, so the load spreads
    across the cluster exactly as the consistent-hash routing dictates.
    Prefill also goes through the ring. *)
