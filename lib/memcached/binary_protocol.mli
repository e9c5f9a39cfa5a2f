(** memcached binary protocol (the classic 24-byte-header wire format).

    Complements {!Protocol} (text): real memcached deployments speak both,
    auto-detected by the first byte of a connection (0x80 = binary request
    magic). Covers the operation set our store implements: Get/GetQ/GetK,
    Set/Add/Replace, Delete, Incr/Decr, Append/Prepend, Touch, GAT/GATQ,
    Flush, Noop, Version, Stat (keyed: [rp], [persist], [trace]), Quit —
    including the quiet variants' suppress-on-miss semantics.

    Integers are big-endian on the wire. CAS values are 64-bit on the wire
    but OCaml ints internally (we never generate values above 62 bits). *)

type opcode =
  | Get
  | Set
  | Add
  | Replace
  | Delete
  | Increment
  | Decrement
  | Quit
  | Flush
  | GetQ
  | Noop
  | Version
  | GetK
  | GetKQ
  | Append
  | Prepend
  | Stat
  | Touch
  | GAT  (** get-and-touch: extras carry the new exptime *)
  | GATQ  (** quiet get-and-touch: silent on a miss *)

val opcode_to_byte : opcode -> int
val opcode_of_byte : int -> opcode option

type status =
  | Ok_status
  | Key_not_found
  | Key_exists
  | Value_too_large
  | Invalid_arguments
  | Item_not_stored
  | Non_numeric_value
  | Busy  (** 0x0085 — mutation shed by the overload guard *)
  | Read_only  (** 0x0086 — mutation refused by a following replica *)
  | Unknown_command

val status_to_int : status -> int
val status_of_int : int -> status

type request = {
  opcode : opcode;
  key : string;
  value : string;
  extras : string;  (** raw extras bytes, already laid out per opcode *)
  opaque : int;  (** echoed verbatim in the response *)
  cas : int;
}

type response = {
  r_opcode : opcode;
  status : status;
  r_key : string;
  r_value : string;
  r_extras : string;
  r_opaque : int;
  r_cas : int;
}

(** {1 Extras helpers} *)

val set_extras : flags:int -> exptime:int -> string
(** 8 bytes: flags, exptime (both u32 BE) — for Set/Add/Replace requests. *)

val get_response_extras : flags:int -> string
(** 4 bytes of flags — for Get-family responses. *)

val counter_extras : delta:int -> initial:int -> exptime:int -> string
(** 20 bytes: delta u64, initial u64, exptime u32 — for Incr/Decr. *)

val touch_extras : exptime:int -> string

val u64_bytes : int -> string
(** 8 big-endian bytes (counter response payloads). *)

val parse_u32 : string -> int -> int
val parse_u64 : string -> int -> int

(** {1 Wire codecs} *)

val encode_request : request -> string
val encode_response : response -> string

val encode_response_into : Buffer.t -> response -> unit
(** Render a response frame into a caller-owned buffer (identical bytes to
    {!encode_response}); used by the event-loop workers to coalesce a
    pipelined batch into a single write. *)

(** Incremental request parser (server side). *)
module Parser : sig
  type t

  val create : ?inbuf:Protocol.Inbuf.t -> unit -> t
  (** [inbuf] (default: a fresh one) is the input window the parser
      reads; a connection passes the window its first bytes were read
      into. *)

  val feed : t -> string -> unit

  val next : t -> (request, string) result option
  (** [None] = need more bytes. [Error] = malformed frame (bad magic or
      inconsistent lengths); the connection should be dropped, as real
      memcached does for binary framing errors. *)
end

(** Incremental response parser (client side). *)
module Response_parser : sig
  type t

  val create : unit -> t
  val feed : t -> string -> unit
  val next : t -> (response, string) result option
end

val magic_request_byte : char
(** ['\x80'] — used by the server to sniff binary connections. *)
