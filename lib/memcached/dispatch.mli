(** Text-protocol request dispatch onto the {!Store}, shared by the
    event-loop workers ({!Evloop}/{!Conn}) and the in-process benchmark
    loopback. *)

val handle : Store.t -> Protocol.request -> Protocol.response option
(** Execute one request. [None] means no response is sent (noreply flag, or
    [Quit], which the connection loop treats as close). *)

val get_run : Store.t -> with_cas:bool -> string list -> Protocol.value list
(** The keys of one [get] (or [gets] with [~with_cas:true]) request, or
    of a run of consecutive ones, served by one {!Store.get_many}: what
    {!handle} answers such a request with. GETs are never shed and are
    allowed on a read-only replica, so no gate applies. *)
