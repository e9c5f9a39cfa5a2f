(** Per-connection state machine for the event-loop plane.

    Owns the input window ({!Protocol.Inbuf}, allocated on the first
    byte), the incremental protocol parser scanning it in place
    (text/binary by first-byte sniffing), and a reusable output buffer.
    One poll wakeup drains every complete pipelined request, dispatches
    them as a batch, and coalesces the responses into a single write. *)

type t

val create :
  id:int ->
  buffer_size:int ->
  reads:Rp_obs.Counter.t ->
  writes:Rp_obs.Counter.t ->
  Unix.file_descr ->
  t
(** The fd must already be non-blocking. [buffer_size] is the most bytes
    one read(2) asks for ({!Server.config.read_buffer_size});
    [reads]/[writes] count data-moving syscalls. *)

val fd : t -> Unix.file_descr
val id : t -> int

val closing : t -> bool
(** The connection asked to close (quit, binary framing error): flush any
    remaining output, then drop. *)

val last_active : t -> float
(** Wall-clock instant of the last byte received (idle-timeout sweeps). *)

val wants_write : t -> bool
(** Unflushed response bytes exist: poll for writability and stop reading
    until they drain. *)

val has_backlog : t -> bool
(** The parser holds complete requests that {!dispatch}'s write cap
    deferred; re-dispatch after a flush makes room. *)

val no_progress_since : t -> float
(** Wall-clock instant of this connection's last sign of life in either
    direction (byte received or byte drained) — the slow-client kill
    deadline is measured from here. *)

val input_capacity : t -> int
(** Bytes of input-window storage held: 0 before the first byte and once
    an idle connection's window drained; at most
    {!Protocol.Inbuf.retain_bytes} whenever it is drained. *)

val fill : t -> [ `Eof | `Ok ]
(** Read straight into the input window's tail until a read returns
    fewer bytes than it asked for, would block, or meets EOF; the caller
    polls level-triggered, so bytes left in the socket wake it again.
    Raises like a socket read ([Unix.Unix_error],
    {!Rp_fault.Injected}); the worker treats that as a torn connection.
    Runs through the ["server.read.split"] failpoint. *)

val dispatch : ?max_out:int -> t -> Store.t -> int
(** Execute every complete buffered request, rendering responses into the
    output buffer; returns the batch size. [max_out] (default unlimited)
    stops rendering once the rendered-but-unwritten response bytes
    (parked remainder + output buffer) reach it, leaving the rest in
    the parser ({!has_backlog}). *)

val flush : t -> [ `Closed | `Done | `Want_write ]
(** Write coalesced responses. Runs through ["server.write.partial"];
    errors and injected tears report [`Closed]. *)
