(** Blocking memcached client over a socket (demos, integration tests).

    Two modes share one API:

    - {!connect}: classic single-server client;
    - {!of_servers}: cluster mode — a ketama consistent-hash ring
      ({!Rp_cluster.Ring}) routes each keyed command to its owning
      member. A member that keeps failing is ejected from routing for a
      jittered backoff window, its keys sliding to the next live ring
      point (failover); the first lookup past the rejoin deadline is the
      probe that lets it back in. *)

type t

exception Disconnected of string
(** The server closed the connection mid-request (raised only once the
    retry budget, if any, is exhausted). *)

val connect : ?retries:int -> Server.address -> t
(** [connect ~retries addr] opens a connection. When [retries > 0]
    (default 0), a request that fails on a connection-level error —
    server closed the socket, reset, refused — reconnects with
    {!Rp_sync.Backoff}-paced delays and re-sends the request, up to
    [retries] attempts, before letting the error escape. Re-sending makes
    delivery at-least-once: a non-idempotent command (incr, append, cas)
    can execute twice if the connection died after the server applied it
    but before the reply arrived. *)

val of_servers :
  ?retries:int ->
  ?eject_after:int ->
  ?rejoin_after:float ->
  (string * int * int) list ->
  t
(** [of_servers [(host, port, weight); ...]] builds a multi-server
    client routing keys over a consistent-hash ring (about
    [100 * weight] continuum points per member). Connections open
    lazily. After [eject_after] (default 3) consecutive
    connection-level failures a member is ejected for [rejoin_after]
    (default 0.5s) scaled by repeat failures and jittered; during
    ejection its keys route to the next live member. [retries] gives
    each keyed request that many failover attempts — each retry
    re-routes. The default is [eject_after + 1]: enough budget for one
    op to strike out a freshly dead member and still land its final
    attempt on the takeover member. *)

val close : t -> unit

val live_members : t -> int
(** Members not currently ejected. *)

val get : t -> string -> Protocol.value option
val get_many : t -> string list -> Protocol.value list
(** In cluster mode the keys are grouped by owning member, one [get]
    per member; response order follows the groups, not the request. *)

val gets : t -> string -> Protocol.value option
(** Like {!get} but the value carries its CAS unique. *)

val set : t -> ?flags:int -> ?exptime:int -> key:string -> data:string -> unit -> bool
val add : t -> ?flags:int -> ?exptime:int -> key:string -> data:string -> unit -> bool

val try_set :
  t ->
  ?flags:int ->
  ?exptime:int ->
  key:string ->
  data:string ->
  unit ->
  [ `Stored | `Not_stored | `Overloaded of string ]
(** Like {!set}, but a [SERVER_ERROR] reply (the guard shedding the
    mutation under overload, or a following replica refusing writes)
    comes back as [`Overloaded msg] instead of an exception — for load
    generators that must keep offering work while the server sheds. *)

val cas : t -> ?flags:int -> ?exptime:int -> key:string -> data:string -> unique:int -> unit -> Protocol.response
val delete : t -> string -> bool
val incr : t -> string -> int -> int option
val decr : t -> string -> int -> int option
val touch : t -> key:string -> exptime:int -> bool
val stats : ?arg:string -> t -> (string * string) list
(** [stats t] sends [stats]; [stats ~arg:"rp" t] sends [stats rp] and
    returns the relativistic-stack instrument lines only. Routed to the
    first live member in cluster mode. *)

val version : t -> string

val promote : t -> (unit, string) result
(** Send [cluster promote] — tells a following replica to stop
    replicating and start accepting writes ([Error] when the server is
    not a replica). *)

val flush_all : t -> unit
(** Cluster mode broadcasts the flush to every live member. *)

val request : t -> Protocol.request -> Protocol.response
(** Send any request and wait for its response (raises [Failure] on
    protocol errors or closed connections). Routed to the first live
    member in cluster mode. *)
