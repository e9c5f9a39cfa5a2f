(** memcached text protocol: requests, responses, and incremental codecs.

    Covers the commands the paper's workload exercises (get/set) plus the
    surrounding command set a real deployment would expect (gets/cas, add,
    replace, append, prepend, delete, incr/decr, touch, stats, flush_all,
    version, quit). Lines end in CRLF; storage commands carry a data block
    of an announced byte length. *)

type storage = {
  key : string;
  flags : int;
  exptime : int;  (** raw protocol value; the store interprets (0 = never) *)
  noreply : bool;
  data : string;
}

type request =
  | Get of string list
  | Gets of string list
  | Set of storage
  | Add of storage
  | Replace of storage
  | Append of storage
  | Prepend of storage
  | Cas of storage * int
  | Delete of { key : string; noreply : bool }
  | Incr of { key : string; delta : int; noreply : bool }
  | Decr of { key : string; delta : int; noreply : bool }
  | Touch of { key : string; exptime : int; noreply : bool }
  | Stats of string option
      (** [stats] or [stats <arg>]; the server understands [stats rp]
          (relativistic-stack metrics), [stats persist], [stats trace]
          (flight-recorder state), and [stats cluster] (replication
          role and watermarks) *)
  | Trace_dump of int option
      (** [trace dump [n]]: export the flight recorder's newest [n]
          events (all, when omitted) as Chrome trace-event JSON *)
  | Heat_dump of int option
      (** [heat dump [n]]: export the workload-insight plane — top [n]
          heavy hitters per sketch (all [k], when omitted), stripe
          heatmap, size histograms — as one JSON document *)
  | Cluster_promote
      (** [cluster promote]: a following replica stops replicating,
          clears read-only, and starts accepting mutations *)
  | Flush_all of { noreply : bool }
  | Version
  | Quit

type value = { vkey : string; vflags : int; vdata : string; vcas : int option }

type response =
  | Values of value list  (** rendered as VALUE lines + END *)
  | Stored
  | Not_stored
  | Exists
  | Not_found
  | Deleted
  | Touched
  | Ok_reply
  | Version_reply of string
  | Number of int
  | Stats_reply of (string * string) list
  | Trace_json of string
      (** [trace dump] reply: one line of trace-event JSON, then [END] *)
  | Client_error of string
  | Server_error of string
  | Error_reply

val encode_request : request -> string
val encode_response : response -> string

val encode_response_into : Buffer.t -> response -> unit
(** Render a response into a caller-owned buffer. The event-loop workers
    coalesce a whole pipelined batch this way — one reusable buffer, one
    socket write, no per-command response string. *)

val add_value_slice :
  Buffer.t ->
  Bytes.t ->
  int ->
  int ->
  flags:int ->
  with_cas:bool ->
  cas:int ->
  Bytes.t ->
  int ->
  int ->
  unit
(** [add_value_slice buf key off len ~flags ~with_cas ~cas data doff
    dlen] renders one [VALUE] block of a get/gets reply — the key being
    [len] bytes of [key] from [off], the value [dlen] bytes of [data]
    from [doff], [cas] rendered only [with_cas] — as three appends to
    [buf]: the header line, built in a reused per-domain scratch, then
    the value, then CRLF. Allocates nothing once the scratch exists. *)

val add_end : Buffer.t -> unit
(** The [END] line closing a get/gets reply. *)

val request_key_valid : string -> bool
(** memcached key rules: 1–250 bytes, no spaces or control characters. *)

(** The input window: one growable byte buffer per input stream, shared
    by the text and binary parsers. Bytes are read (or fed) straight into
    its tail, parsers scan them in place, and only keys, data blocks and
    fallback lines are copied out. *)
module Inbuf : sig
  type t = private {
    mutable data : Bytes.t;
    mutable pos : int;
    mutable len : int;
  }
  (** The unread bytes are [data] from [pos] to [len]. *)

  val create : unit -> t
  (** An empty window holding no storage: it is allocated by the first
      {!reserve} that needs room. *)

  val retain_bytes : int
  (** 256 KiB. A window larger than this is released as soon as it
      drains, so one large request does not pin its buffer; the
      connection's output buffers follow the same rule. *)

  val reserve : t -> int -> unit
  (** [reserve t n] makes room for [n] bytes at [len]. The unread bytes
      slide to the front only when the tail is too short, and the window
      grows (at least doubling) only when they and [n] exceed it. *)

  val commit : t -> int -> unit
  (** [commit t n] appends the [n] bytes just written at [len]. *)

  val advance : t -> int -> unit
  (** [advance t p] consumes the bytes before index [p]. A drained window
      restarts at offset 0, and is released if above {!retain_bytes}. *)

  val release : t -> unit
  (** Let go of a drained window's storage (a no-op while bytes are
      unread). *)

  val feed : t -> string -> unit
  (** Append a string: {!reserve}, blit, {!commit}. *)

  val available : t -> int
  (** Unread bytes. *)

  val capacity : t -> int
  (** Bytes of storage held (0 when none). *)
end

(** The keys of a multiget as slices of one byte buffer: key [i] is the
    [lens.(i)] bytes of [buf] from [offs.(i)], and [hashes.(i)] is
    {!Rp_hashes.Hashfn.fnv1a_string} of those bytes (the store's key
    hash). *)
module Keys : sig
  type t = private {
    mutable buf : Bytes.t;
    mutable offs : int array;
    mutable lens : int array;
    mutable hashes : int array;
    mutable n : int;  (** keys held: entries [0 .. n - 1] *)
  }

  val create : unit -> t

  val key : t -> int -> string
  (** Key [i] as a fresh string. *)

  val stage : t -> string list -> unit
  (** Replace the keys by copies of [keys] in [t]'s own buffer (grown
      when too small), with their hashes. For a caller holding strings;
      a parser's keys slice its input window instead. *)
end

(** A run of consecutive [get], [gets] and [set] lines, read in place by
    {!Parser.run}. *)
module Run : sig
  type kind = Get_line | Gets_line | Set_line | Set_noreply_line

  type t = private {
    keys : Keys.t;
        (** every key of the run, slicing the input window: a get line's
            keys, then the next line's; a set line has one *)
    mutable kinds : kind array;  (** [kinds.(l)]: line [l]'s command *)
    mutable ends : int array;  (** [ends.(l)]: the index past line [l]'s last key *)
    mutable flags : int array;  (** a set line's flags *)
    mutable exptimes : int array;  (** a set line's exptime *)
    mutable data_offs : int array;
        (** where a set line's data block starts in [keys.buf] *)
    mutable data_lens : int array;  (** a set line's data length *)
    mutable lines : int;  (** lines taken; 0 when none was *)
    mutable sets : int;  (** how many of them are set lines *)
  }

  val is_set : t -> int -> bool
  (** Line [l] is a set line. *)

  val first_key : t -> int -> int
  (** The index of line [l]'s first key. *)
end

(** Incremental request parser (server side). Feed raw bytes; pull complete
    requests. A malformed line yields [Error _] and the parser resynchronises
    at the next line. *)
module Parser : sig
  type t

  (** [create ?max_line ()] builds a parser. [max_line] (default 8192)
      bounds command-line buffering: a line that exceeds it — terminated
      or not — yields [Error "line too long"] exactly once, the
      oversized bytes are dropped without being buffered, and parsing
      resynchronises at the next CRLF. Data blocks of an announced
      length are not affected. [inbuf] (default: a fresh one) is the
      input window the parser reads; a connection passes the window its
      first bytes were read into. *)
  val create : ?max_line:int -> ?inbuf:Inbuf.t -> unit -> t
  val feed : t -> string -> unit

  val next : t -> (request, string) result option
  (** [None] means more bytes are needed. *)

  val run : t -> max_keys:int -> Run.t
  (** Read, in place, the run of consecutive [get], [gets] and [set]
      lines that starts the buffered input: the lines {!next} would
      return as [Get], [Gets] or [Set] through its scan (a set line only
      with its whole data block buffered), taken while the run holds at
      most [max_keys] keys — its first line is taken whatever its key
      count. The scan stops before the first line it does not take,
      which {!next} then parses. Each key is recorded as a slice of the
      input window with its hash, computed in the pass that finds the
      key's end, and each set line's data block as a slice; nothing is
      allocated once the run's arrays are large enough. Returns the
      parser's own run record ([lines] = 0 when the input does not start
      with such a line), valid until the parser's next call. *)

  val buffered_bytes : t -> int
end

(** Incremental response parser (client side). *)
module Response_parser : sig
  type t

  val create : unit -> t
  val feed : t -> string -> unit
  val next : t -> (response, string) result option
end
