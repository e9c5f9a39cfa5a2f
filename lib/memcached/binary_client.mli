(** Blocking binary-protocol client (tests, demos).

    The first frame sent carries the 0x80 magic, which is also what flips
    the server's protocol auto-detection to binary. *)

type t

val connect : Server.address -> t

val of_servers :
  ?retries:int ->
  ?eject_after:int ->
  ?rejoin_after:float ->
  (string * int * int) list ->
  t
(** Multi-server mode: keyed requests route over a ketama consistent-hash
    ring ({!Rp_cluster.Ring}); a member failing [eject_after] (default 3)
    consecutive connection attempts is ejected for a jittered
    [rejoin_after]-based window and its keys fail over to the next live
    member. Each request gets [retries] (default 2) re-routed attempts. *)

val close : t -> unit

val get : t -> string -> (string * int) option
(** [Some (value, flags)]. *)

val set :
  t -> ?flags:int -> ?exptime:int -> ?cas:int -> key:string -> data:string ->
  unit -> Binary_protocol.status

val add : t -> ?flags:int -> ?exptime:int -> key:string -> data:string -> unit
  -> Binary_protocol.status

val delete : t -> string -> bool
val incr : t -> ?initial:int -> string -> int -> int option
val decr : t -> ?initial:int -> string -> int -> int option
val touch : t -> key:string -> exptime:int -> bool

val gat : t -> key:string -> exptime:int -> (string * int) option
(** Get-and-touch: [Some (value, flags)] with the expiry bumped. *)

val version : t -> string
val noop : t -> unit
val flush_all : t -> unit

val stats : ?key:string -> t -> (string * string) list
(** [stats t] is the default section; [~key:"rp"], [~key:"persist"], and
    [~key:"trace"] select the named sections (raises [Failure] on an
    unknown section). *)

val request : t -> Binary_protocol.request -> Binary_protocol.response
(** Send any request expecting exactly one response frame. *)

