(** Text-protocol request dispatch onto the {!Store}, shared by the
    event-loop workers ({!Evloop}/{!Conn}) and the in-process benchmark
    loopback. *)

val handle : Store.t -> Protocol.request -> Protocol.response option
(** Execute one request. [None] means no response is sent (noreply flag, or
    [Quit], which the connection loop treats as close). *)

type admission =
  | Admit
  | Shed  (** the overload guard refuses mutations *)
  | Read_only  (** a following replica refuses client mutations *)

val admit_mutation : Store.t -> admission
(** The gates every client mutation passes before it reaches the store:
    the overload guard first (a refusal is counted as shed), then the
    replica's read-only flag. GETs pass neither. *)

val set_line : Store.t -> clock:float -> Buffer.t -> Protocol.Run.t -> int -> unit
(** Serve set line [l] of a run read in place at the reading [clock] of
    the store's clock ({!Store.set_slice}), exactly as {!handle} serves
    the [Set] request {!Protocol.Parser.next} would return for it —
    same gates, same store effects, same reply — with the reply appended
    to the buffer (nothing for [noreply]) and no key, data, request or
    reply value built beyond the stored data. [l] must be a set line. *)
