(* Sharded event-loop network plane.

   N worker domains each own a private poll set: a wake pipe plus the
   connections sharded onto them (least-loaded at accept time). A worker
   wakes, drains every readable socket until it would block, dispatches
   all complete pipelined requests as one batch, and writes each
   connection's responses as one coalesced flush — request count per
   wakeup lands in the [server_batch_requests] histogram, so the
   batching the paper's pipelined workloads rely on is observable.

   Each worker is a QSBR participant exactly once (registration is
   per-domain, on first store access) and goes {e offline} before
   blocking in [select], so a parked worker never stalls grace periods
   while its zero-cost GET read sections stay free of shared atomic
   RMWs. *)

type config = {
  workers : int;  (* resolved by the caller; >= 1 *)
  idle_timeout : float;
  read_buffer_size : int;
  conn_write_cap : int;  (* per-conn pending-write byte cap; 0 = unlimited *)
  drain_deadline : float;  (* kill a no-progress backed-up conn after this *)
}

let k_wakeup = Rp_trace.intern "evloop.wakeup"
let k_adopt = Rp_trace.intern "evloop.adopt"
let k_drop = Rp_trace.intern "server.conn.drop"
let k_slow_kill = Rp_trace.intern "server.conn.slow_kill"

(* [Unix.select] takes an fd_set: one descriptor at or past FD_SETSIZE
   fails the whole call with EINVAL. On Unix a [file_descr] is the
   kernel's int. *)
let fd_setsize = 1024
let fd_int (fd : Unix.file_descr) : int = Obj.magic fd
let pollable fd = fd_int fd < fd_setsize

(* A worker's connections by descriptor number: fds are compared and
   hashed as ints, not through the polymorphic compare and hash. *)
module Conns = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash fd = fd
end)

let rec mem_fd fd = function [] -> false | x :: rest -> fd_int x = fd || mem_fd fd rest

type worker = {
  index : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  inbox_mutex : Mutex.t;
  inbox : (int * Unix.file_descr) Queue.t;  (* accepted, not yet adopted *)
  load : int Atomic.t;  (* owned connections, inbox included *)
  mutable domain : unit Domain.t option;
}

type t = {
  store : Store.t;
  config : config;
  workers : worker array;
  running : bool Atomic.t;
  live : int Atomic.t;
  wakeups : Rp_obs.Counter.t;
  batches : Rp_obs.Histogram.t;
  reads : Rp_obs.Counter.t;
  writes : Rp_obs.Counter.t;
  slow_kills : Rp_obs.Counter.t;
}

let write_cap t =
  if t.config.conn_write_cap > 0 then t.config.conn_write_cap else max_int

let wake w =
  try ignore (Unix.write_substring w.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

(* A full wake pipe already guarantees a pending wakeup. *)

let drop t w conns conn =
  let fd = Conn.fd conn in
  Conns.remove conns (fd_int fd);
  Atomic.decr w.load;
  Atomic.decr t.live;
  Rp_trace.instant ~arg:(Conn.id conn) k_drop;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let adopt t w conns =
  let adopted = ref [] in
  Mutex.lock w.inbox_mutex;
  Queue.iter (fun entry -> adopted := entry :: !adopted) w.inbox;
  Queue.clear w.inbox;
  Mutex.unlock w.inbox_mutex;
  List.iter
    (fun (id, fd) ->
      (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
      let conn =
        Conn.create ~id ~buffer_size:t.config.read_buffer_size ~reads:t.reads
          ~writes:t.writes fd
      in
      Conns.replace conns (fd_int fd) conn)
    !adopted

(* Flush, then keep re-dispatching requests the write cap deferred as
   long as the socket keeps accepting bytes. Terminates: every turn
   either drains the backlog flag or ends in [`Want_write]/[`Done]. *)
let pump t conn =
  let rec go () =
    match Conn.flush conn with
    | `Closed -> `Close
    | `Want_write -> `Keep
    | `Done ->
        if Conn.closing conn then `Close
        else if Conn.has_backlog conn then begin
          let batch = Conn.dispatch ~max_out:(write_cap t) conn t.store in
          if batch > 0 then Rp_obs.Histogram.observe t.batches batch;
          go ()
        end
        else `Keep
  in
  go ()

(* One readable wakeup: drain the socket, dispatch the whole batch,
   coalesce the responses into one flush. *)
let on_readable t conn =
  match
    Rp_fault.point "server.conn.reset";
    let eof = Conn.fill conn in
    let batch = Conn.dispatch ~max_out:(write_cap t) conn t.store in
    if batch > 0 then Rp_obs.Histogram.observe t.batches batch;
    match pump t conn with
    | `Close -> `Close
    | `Keep -> ( match eof with `Eof -> `Close | `Ok -> `Keep)
  with
  | verdict -> verdict
  | exception (Unix.Unix_error _ | End_of_file | Rp_fault.Injected _) -> `Close

let sweep_idle t w conns =
  let now = Unix.gettimeofday () in
  let stale =
    Conns.fold
      (fun _ conn acc ->
        if now -. Conn.last_active conn > t.config.idle_timeout then
          conn :: acc
        else acc)
      conns []
  in
  List.iter (fun conn -> drop t w conns conn) stale

(* Slow-client defense: a connection we owe bytes that has made no
   progress in either direction for a whole drain deadline is dead
   weight pinning coalescer memory — kill it. Healthy-but-slow peers
   are safe: any drained byte resets the clock. Only a connection that
   was backed up when the worker polled can be overdue, and the worker
   sweeps at most once per [slow_tick]. *)
let sweep_slow t w conns ~now =
  let hung =
    Conns.fold
      (fun _ conn acc ->
        if
          Conn.wants_write conn
          && now -. Conn.no_progress_since conn > t.config.drain_deadline
        then conn :: acc
        else acc)
      conns []
  in
  List.iter
    (fun conn ->
      Rp_obs.Counter.incr t.slow_kills;
      Rp_trace.instant ~arg:(Conn.id conn) k_slow_kill;
      drop t w conns conn)
    hung

(* How often a worker with a backed-up connection wakes on its own to
   sweep for slow clients: a quarter of the drain deadline, within
   [10 ms, 50 ms]. *)
let slow_tick config = Float.max 0.01 (Float.min 0.05 (config.drain_deadline /. 4.))

(* Defensive: a select EBADF means a descriptor went bad under us; evict
   whichever connections no longer stat rather than spinning. *)
let sweep_bad t w conns =
  let bad =
    Conns.fold
      (fun _ conn acc ->
        match Unix.fstat (Conn.fd conn) with
        | _ -> acc
        | exception Unix.Unix_error _ -> conn :: acc)
      conns []
  in
  List.iter (fun conn -> drop t w conns conn) bad

let worker_loop t w =
  let conns : Conn.t Conns.t = Conns.create 64 in
  let scratch = Bytes.create 64 in
  let wake_fd = fd_int w.wake_r in
  let slow_tick = slow_tick t.config and slow_due = ref 0.0 in
  while Atomic.get t.running do
    let rset = ref [ w.wake_r ] and wset = ref [] in
    Conns.iter
      (fun _ conn ->
        (* Backpressure: stop reading while response bytes are parked. *)
        if Conn.wants_write conn then wset := Conn.fd conn :: !wset
        else rset := Conn.fd conn :: !rset)
      conns;
    let backed_up = match !wset with [] -> false | _ :: _ -> true in
    let timeout =
      let base =
        if t.config.idle_timeout > 0.0 then
          Float.min t.config.idle_timeout 0.25
        else -1.0
      in
      (* With a backed-up connection and a drain deadline armed, the
         worker must wake on its own: the hung socket may never become
         writable, and only the sweep can kill it. *)
      if t.config.drain_deadline > 0.0 && backed_up then
        if base < 0.0 then slow_tick else Float.min base slow_tick
      else base
    in
    (* Parked workers must not stall QSBR grace periods. *)
    Store.reader_offline t.store;
    match Unix.select !rset !wset [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> sweep_bad t w conns
    | readable, writable, _ ->
        Rp_obs.Counter.incr t.wakeups;
        let wakeup_span =
          match (readable, writable) with
          | [], [] -> -1
          | _ -> Rp_trace.span_begin ~arg:w.index k_wakeup
        in
        if mem_fd wake_fd readable then begin
          (try ignore (Unix.read w.wake_r scratch 0 (Bytes.length scratch))
           with Unix.Unix_error _ -> ());
          Rp_trace.instant ~arg:w.index k_adopt;
          adopt t w conns
        end;
        List.iter
          (fun fd ->
            match Conns.find_opt conns (fd_int fd) with
            | None -> ()
            | Some conn -> (
                match pump t conn with
                | `Close -> drop t w conns conn
                | `Keep -> ()))
          writable;
        List.iter
          (fun fd ->
            let fd = fd_int fd in
            if fd <> wake_fd then
              match Conns.find_opt conns fd with
              | None -> ()
              | Some conn -> (
                  match on_readable t conn with
                  | `Keep -> ()
                  | `Close -> drop t w conns conn))
          readable;
        Rp_trace.span_end ~arg:w.index k_wakeup wakeup_span;
        if t.config.drain_deadline > 0.0 && backed_up then begin
          let now = Unix.gettimeofday () in
          if now >= !slow_due then begin
            sweep_slow t w conns ~now;
            slow_due := now +. slow_tick
          end
        end;
        if t.config.idle_timeout > 0.0 then sweep_idle t w conns
  done;
  let leftovers = Conns.fold (fun _ conn acc -> conn :: acc) conns [] in
  List.iter (fun conn -> drop t w conns conn) leftovers;
  (* Exit clean: deregistration is implicit, but leave no reader online. *)
  Store.reader_offline t.store

let create ~store (config : config) =
  if config.workers < 1 then invalid_arg "Evloop.create: workers < 1";
  let reg = Store.registry store in
  let wakeups =
    Rp_obs.Registry.counter reg ~help:"event-loop worker poll wakeups"
      "server_worker_wakeups_total"
  in
  let batches =
    Rp_obs.Registry.histogram reg
      ~help:"requests dispatched per poll wakeup (pipelining depth seen)"
      "server_batch_requests"
  in
  let reads =
    Rp_obs.Registry.counter reg ~help:"server read(2) calls that moved data"
      "server_read_syscalls_total"
  in
  let writes =
    Rp_obs.Registry.counter reg ~help:"server write(2) calls that moved data"
      "server_write_syscalls_total"
  in
  let slow_kills =
    Rp_obs.Registry.counter reg
      ~help:"connections killed for making no drain progress"
      "guard_slow_client_kills_total"
  in
  Rp_obs.Registry.gauge reg ~help:"event-loop worker domains"
    "server_event_workers"
    (fun () -> float_of_int config.workers);
  let workers =
    Array.init config.workers (fun index ->
        let wake_r, wake_w = Unix.pipe () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        {
          index;
          wake_r;
          wake_w;
          inbox_mutex = Mutex.create ();
          inbox = Queue.create ();
          load = Atomic.make 0;
          domain = None;
        })
  in
  let t =
    {
      store;
      config;
      workers;
      running = Atomic.make true;
      live = Atomic.make 0;
      wakeups;
      batches;
      reads;
      writes;
      slow_kills;
    }
  in
  Array.iter
    (fun w ->
      Rp_obs.Registry.gauge reg ~help:"connections owned by this worker"
        (Printf.sprintf "server_worker%d_connections" w.index)
        (fun () -> float_of_int (Atomic.get w.load)))
    workers;
  Array.iter
    (fun w -> w.domain <- Some (Domain.spawn (fun () -> worker_loop t w)))
    workers;
  t

let submit t ~id fd =
  let best = ref t.workers.(0) in
  Array.iter
    (fun w -> if Atomic.get w.load < Atomic.get !best.load then best := w)
    t.workers;
  let w = !best in
  Atomic.incr w.load;
  Atomic.incr t.live;
  Mutex.lock w.inbox_mutex;
  Queue.add (id, fd) w.inbox;
  Mutex.unlock w.inbox_mutex;
  wake w

let live_connections t = Atomic.get t.live
let worker_count t = Array.length t.workers

let stop t =
  Atomic.set t.running false;
  Array.iter wake t.workers;
  Array.iter
    (fun w -> match w.domain with Some d -> Domain.join d | None -> ())
    t.workers;
  Array.iter
    (fun w ->
      (* Connections accepted but never adopted die here. *)
      Mutex.lock w.inbox_mutex;
      Queue.iter
        (fun (_, fd) ->
          Atomic.decr w.load;
          Atomic.decr t.live;
          try Unix.close fd with Unix.Unix_error _ -> ())
        w.inbox;
      Queue.clear w.inbox;
      Mutex.unlock w.inbox_mutex;
      (try Unix.close w.wake_r with Unix.Unix_error _ -> ());
      try Unix.close w.wake_w with Unix.Unix_error _ -> ())
    t.workers
