(* Per-connection state machine for the event-loop plane.

   A connection owns an input window (reads land straight in its tail and
   the parser scans it in place; see [Protocol.Inbuf]), an incremental
   protocol parser over that window (text or binary, decided by the first
   byte, as in stock memcached), and a reusable output buffer. One poll
   wakeup drains *all* complete pipelined requests buffered on the
   socket, dispatches them as a batch, and coalesces every response into
   a single write — no per-command syscall, no per-command response
   string. A flush copies the rendered bytes into a reused write buffer,
   so a flush allocates nothing; partial writes leave the remainder
   there, and the worker then polls the fd for writability and stops
   reading until the backlog drains (backpressure). *)

type proto =
  | Detect
  | Text of Protocol.Parser.t
  | Binary of Binary_protocol.Parser.t

(* Flight-recorder span names (request tier: every request gets a B/E
   pair so the tail trigger has a substrate; the conn.* spans bracket
   the batch so request spans nest under their dispatch). *)
let k_fill = Rp_trace.intern "conn.fill"
let k_batch = Rp_trace.intern "conn.dispatch"
let k_flush = Rp_trace.intern "conn.flush"
let k_req = Rp_trace.intern "req.text"
let k_req_bin = Rp_trace.intern "req.binary"
let k_encode = Rp_trace.intern "conn.encode"

type t = {
  fd : Unix.file_descr;
  id : int;
  inbuf : Protocol.Inbuf.t;  (* read into by [fill], scanned by the parser *)
  read_size : int;  (* bytes asked of each read(2) *)
  out : Buffer.t;
  (* Rendered but unwritten response bytes: [wbuf] from [pending_off] to
     [pending_len], copied out of [out] when it was flushed. *)
  mutable wbuf : Bytes.t;
  mutable pending_off : int;
  mutable pending_len : int;
  mutable proto : proto;
  mutable closing : bool;  (* flush remaining output, then close *)
  mutable last_active : float;
  mutable last_progress : float;  (* last write(2) that moved bytes *)
  mutable backlog : bool;  (* parser holds requests the write cap deferred *)
  (* A request pulled from the parser to end a run of GETs, served next. *)
  mutable carry : (Protocol.request, string) result option;
  reads : Rp_obs.Counter.t;  (* read(2) calls that moved bytes *)
  writes : Rp_obs.Counter.t;  (* write(2) calls that moved bytes *)
}

let create ~id ~buffer_size ~reads ~writes fd =
  {
    fd;
    id;
    inbuf = Protocol.Inbuf.create ();
    read_size = buffer_size;
    out = Buffer.create 256;
    wbuf = Bytes.empty;
    pending_off = 0;
    pending_len = 0;
    proto = Detect;
    closing = false;
    last_active = Unix.gettimeofday ();
    last_progress = Unix.gettimeofday ();
    backlog = false;
    carry = None;
    reads;
    writes;
  }

let fd t = t.fd
let id t = t.id
let closing t = t.closing
let last_active t = t.last_active
let wants_write t = t.pending_off < t.pending_len || Buffer.length t.out > 0
let has_backlog t = t.backlog
let input_capacity t = Protocol.Inbuf.capacity t.inbuf

let pending_bytes t =
  t.pending_len - t.pending_off + Buffer.length t.out

(* Slow-client deadline base: the later of "last byte we received" and
   "last byte the peer drained". A long-idle keepalive connection is not
   slow (nothing owed to it); a connection we owe bytes that accepts none
   is. *)
let no_progress_since t = Float.max t.last_active t.last_progress

(* The first byte decides the protocol; the chosen parser takes over
   the window those bytes were read into. *)
let detect t =
  let w = t.inbuf in
  if Protocol.Inbuf.available w > 0 then
    if Bytes.get w.data w.pos = Binary_protocol.magic_request_byte then
      t.proto <- Binary (Binary_protocol.Parser.create ~inbuf:w ())
    else t.proto <- Text (Protocol.Parser.create ~inbuf:w ())

(* Drain the socket until it would block (or EOF), reading straight into
   the window's tail. Raises like any socket read (Unix_error, injected
   faults); the worker treats that as a torn connection. A fill that
   finds nothing, with nothing unread, lets the window go: an idle
   connection holds no input storage. *)
let fill t =
  let w = t.inbuf in
  let rec go () =
    Protocol.Inbuf.reserve w t.read_size;
    match
      Io.read_nonblock ~fault:"server.read.split" ~off:w.len ~len:t.read_size t.fd w.data
    with
    | `Would_block ->
        Protocol.Inbuf.release w;
        `Ok
    | `Eof -> `Eof
    | `Data n ->
        Rp_obs.Counter.incr t.reads;
        t.last_active <- Unix.gettimeofday ();
        Protocol.Inbuf.commit w n;
        go ()
  in
  let verdict = Rp_trace.with_span ~arg:t.id k_fill go in
  (match t.proto with Detect -> detect t | Text _ | Binary _ -> ());
  verdict

(* A run's replies, one VALUE...END block per request in arrival order
   ([reqs] holds the requests' keys newest first); the values left. *)
let rec encode_run out reqs values =
  match reqs with
  | [] -> values
  | keys :: older -> Protocol.encode_values_for_into out keys (encode_run out older values)

(* Serve a run of get (or gets) requests with one multiget, traced as
   one request: the head sampler and the slow-request trigger count runs,
   and the store's read section nests under the run's span. *)
let serve_run t store ~with_cas reqs =
  Rp_trace.request_begin ~arg:t.id k_req;
  let keys =
    match reqs with [ keys ] -> keys | _ -> List.fold_left (fun acc keys -> keys @ acc) [] reqs
  in
  let values = Dispatch.get_run store ~with_cas keys in
  let enc = Rp_trace.span_begin_sampled k_encode in
  ignore (encode_run t.out reqs values);
  Rp_trace.span_end_sampled k_encode enc;
  Rp_trace.request_end ()

(* Execute every complete request buffered in the parser, rendering
   responses into [t.out]. Returns the batch size (dispatched commands,
   protocol errors included). [max_out] caps the rendered-but-unwritten
   bytes: past it, remaining parsed requests stay in the parser
   ([has_backlog] goes true) until a flush makes room — one pipelining
   client that never reads can pin at most ~cap of coalescer memory.

   Consecutive text [get] requests (or consecutive [gets]) form a run,
   served by one multiget: at most [Store.batch_keys] keys, unless one
   request alone has more. Any other request ends the run, so a
   connection still reads its own writes; the request that ended it is
   carried to the next turn, which checks the write cap first. *)
let dispatch ?(max_out = max_int) t store =
  let over_cap () = pending_bytes t >= max_out in
  match t.proto with
  | Detect -> 0
  | Text p ->
      let rec go n =
        if t.closing then n
        else if over_cap () then begin
          t.backlog <- true;
          n
        end
        else
          let next =
            match t.carry with
            | None -> Protocol.Parser.next p
            | carried ->
                t.carry <- None;
                carried
          in
          match next with
          | None ->
              t.backlog <- false;
              n
          | Some (Ok (Protocol.Get keys)) -> run n ~with_cas:false [ keys ] 1 (List.length keys)
          | Some (Ok (Protocol.Gets keys)) -> run n ~with_cas:true [ keys ] 1 (List.length keys)
          | Some (Error msg) ->
              let reply =
                if msg = "ERROR" then Protocol.Error_reply
                else Protocol.Client_error msg
              in
              Protocol.encode_response_into t.out reply;
              go (n + 1)
          | Some (Ok Protocol.Quit) ->
              t.closing <- true;
              n + 1
          | Some (Ok request) ->
              Rp_trace.request_begin ~arg:t.id k_req;
              (match Dispatch.handle store request with
              | Some response ->
                  let enc = Rp_trace.span_begin_sampled k_encode in
                  Protocol.encode_response_into t.out response;
                  Rp_trace.span_end_sampled k_encode enc
              | None -> ());
              Rp_trace.request_end ();
              go (n + 1)
      (* Grow the run by the parser's next request while it is a request
         of the same kind and the run stays within the key cap. *)
      and run n ~with_cas reqs nreqs nkeys =
        let next = Protocol.Parser.next p in
        match next with
        | Some (Ok (Protocol.Get keys)) when not with_cas -> grow n ~with_cas reqs nreqs nkeys keys next
        | Some (Ok (Protocol.Gets keys)) when with_cas -> grow n ~with_cas reqs nreqs nkeys keys next
        | _ -> finish n ~with_cas reqs nreqs next
      and grow n ~with_cas reqs nreqs nkeys keys next =
        let nkeys' = nkeys + List.length keys in
        if nkeys' <= Store.batch_keys then run n ~with_cas (keys :: reqs) (nreqs + 1) nkeys'
        else finish n ~with_cas reqs nreqs next
      and finish n ~with_cas reqs nreqs next =
        serve_run t store ~with_cas reqs;
        t.carry <- next;
        go (n + nreqs)
      in
      Rp_trace.with_span ~arg:t.id k_batch (fun () -> go 0)
  | Binary p ->
      let rec go n =
        if t.closing then n
        else if over_cap () then begin
          t.backlog <- true;
          n
        end
        else
          match Binary_protocol.Parser.next p with
          | None ->
              t.backlog <- false;
              n
          | Some (Error _) ->
              (* Binary framing errors are unrecoverable: flush what was
                 already rendered, then drop, as stock memcached does. *)
              t.closing <- true;
              n
          | Some (Ok request) ->
              Rp_trace.request_begin ~arg:t.id k_req_bin;
              List.iter
                (fun response ->
                  Binary_protocol.encode_response_into t.out response)
                (Binary_server.handle store request);
              Rp_trace.request_end ();
              if Binary_server.quit_requested request then t.closing <- true;
              go (n + 1)
      in
      Rp_trace.with_span ~arg:t.id k_batch (fun () -> go 0)

(* Push pending then freshly rendered bytes. [`Want_write] means the
   socket backed up: the worker polls for writability. Socket errors and
   injected tears report [`Closed]. *)
let flush t =
  let had_output = wants_write t in
  let span = if had_output then Rp_trace.span_begin ~arg:t.id k_flush else -1 in
  let rec push () =
    if t.pending_off < t.pending_len then
      match
        Io.write_nonblock ~fault:"server.write.partial" t.fd
          (Bytes.unsafe_to_string t.wbuf) ~off:t.pending_off
          ~len:(t.pending_len - t.pending_off)
      with
      | `Would_block -> `Want_write
      | `Wrote n ->
          Rp_obs.Counter.incr t.writes;
          t.last_progress <- Unix.gettimeofday ();
          t.pending_off <- t.pending_off + n;
          push ()
    else if Buffer.length t.out > 0 then begin
      (* [wbuf] is written to only here, once its bytes are all out. *)
      let n = Buffer.length t.out in
      let retain = Protocol.Inbuf.retain_bytes in
      if n > Bytes.length t.wbuf || Bytes.length t.wbuf > max n retain then
        t.wbuf <- Bytes.create n;
      Buffer.blit t.out 0 t.wbuf 0 n;
      if n > retain then Buffer.reset t.out else Buffer.clear t.out;
      t.pending_off <- 0;
      t.pending_len <- n;
      push ()
    end
    else `Done
  in
  let verdict =
    try push () with Unix.Unix_error _ | Rp_fault.Injected _ -> `Closed
  in
  Rp_trace.span_end ~arg:t.id k_flush span;
  verdict
