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
  hits : Store.Hits.t;  (* a GET stretch's values, copied out of the store *)
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
    hits = Store.Hits.create ();
    wbuf = Bytes.empty;
    pending_off = 0;
    pending_len = 0;
    proto = Detect;
    closing = false;
    last_active = Unix.gettimeofday ();
    last_progress = Unix.gettimeofday ();
    backlog = false;
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

(* Read the socket straight into the window's tail until a read returns
   fewer bytes than it asked for, would block, or meets EOF. A short
   read ends the fill: what arrives after it waits in the socket, and
   the worker, polling level-triggered, wakes for it again — so a
   wakeup makes no trailing read(2) that moves nothing. Raises like any
   socket read (Unix_error, injected faults); the worker treats that as
   a torn connection. A fill that finds nothing, with nothing unread,
   lets the window go: an idle connection holds no input storage. *)
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
        if n < t.read_size then `Ok else go ()
  in
  let verdict = Rp_trace.with_span ~arg:t.id k_fill go in
  (match t.proto with Detect -> detect t | Text _ | Binary _ -> ());
  verdict

(* The replies of get lines [l0, l1) of a run, one VALUE...END block per
   line: each hit is three appends (header, value, CRLF), its key copied
   from the run's slice and its value from [hits], which holds the
   lines' keys from [first]: the store copied each value out of its slab
   chunk before its read section closed, so rendering needs no
   section. *)
let render_gets out (run : Protocol.Run.t) (hits : Store.Hits.t) ~first l0 l1 =
  let keys = run.keys in
  let i = ref first in
  for l = l0 to l1 - 1 do
    let stop = Array.unsafe_get run.ends l in
    let with_cas =
      match Array.unsafe_get run.kinds l with
      | Protocol.Run.Gets_line -> true
      | Protocol.Run.Get_line | Protocol.Run.Set_line | Protocol.Run.Set_noreply_line -> false
    in
    while !i < stop do
      let j = !i - first in
      let len = Array.unsafe_get hits.vlen j in
      if len >= 0 then
        Protocol.add_value_slice out keys.buf (Array.unsafe_get keys.offs !i)
          (Array.unsafe_get keys.lens !i) ~flags:(Array.unsafe_get hits.flags j) ~with_cas
          ~cas:(Array.unsafe_get hits.cas j) hits.vbuf (Array.unsafe_get hits.voff j) len;
      incr i
    done;
    Protocol.add_end out
  done

(* The get lines from [l0] up to the next set line (or the run's end),
   with one multiget; returns the line after them. *)
let serve_gets t store ~clock (run : Protocol.Run.t) l0 =
  let rec stop l = if l < run.lines && not (Protocol.Run.is_set run l) then stop (l + 1) else l in
  let l1 = stop (l0 + 1) in
  let first = Protocol.Run.first_key run l0 in
  Store.get_keys store ~clock run.keys ~first ~n:(Array.unsafe_get run.ends (l1 - 1) - first) t.hits;
  let enc = Rp_trace.span_begin_sampled k_encode in
  render_gets t.out run t.hits ~first l0 l1;
  Rp_trace.span_end_sampled k_encode enc;
  l1

(* Serve a run of get, gets and set lines, traced as one request: the
   head sampler and the slow-request trigger count runs, and the store's
   read sections and update spans nest under the run's span. The lines
   are executed in order — each stretch of get lines with one multiget,
   each set line through [Dispatch.set_line] with [Dispatch.handle]'s
   gates — so a get reads every set before it. The run is served at one
   reading of the store's clock. A run holding a set
   first asks the cache for all its keys' lines at once
   ([Store.prefetch]): the updates then walk their chains one at a time
   from cache. That pass only hints, so it changes no result. GETs are
   never shed and are allowed on a read-only replica, so an all-get run
   passes no gate and skips the pass: its multigets stage their own. *)
let serve_run t store (run : Protocol.Run.t) =
  Rp_trace.request_begin ~arg:t.id k_req;
  if run.sets > 0 then Store.prefetch store run.keys;
  let clock = Store.clock store in
  let rec lines l =
    if l < run.lines then
      if Protocol.Run.is_set run l then begin
        Dispatch.set_line store ~clock t.out run l;
        lines (l + 1)
      end
      else lines (serve_gets t store ~clock run l)
  in
  lines 0;
  Rp_trace.request_end ()

(* Execute every complete request buffered in the parser, rendering
   responses into [t.out]. Returns the batch size (dispatched commands,
   protocol errors included). [max_out] caps the rendered-but-unwritten
   bytes: past it, remaining parsed requests stay in the parser
   ([has_backlog] goes true) until a flush makes room — one pipelining
   client that never reads can pin at most ~cap of coalescer memory.

   Consecutive text [get], [gets] and [set] lines form a run, read in
   place by the parser's run scanner and served in order by
   [serve_run]: at most [Store.batch_keys] keys, unless one line alone
   has more. The scanner stops before any other request, so every
   request is executed in arrival order, and the write cap is checked
   between runs. *)
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
          let run = Protocol.Parser.run p ~max_keys:Store.batch_keys in
          if run.lines > 0 then begin
            serve_run t store run;
            go (n + run.lines)
          end
          else
            match Protocol.Parser.next p with
            | None ->
                t.backlog <- false;
                n
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
