let version_string = Version.string

(* Kept as the stable public name; the implementation lives in Dispatch so
   the event-loop plane can reach it without a module cycle. *)
let handle = Dispatch.handle

type address = Unix_socket of string | Tcp of int | Inet of string * int
type mode = Threaded | Event_loop

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
        failwith (Printf.sprintf "cannot resolve host %S" host)
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found ->
        failwith (Printf.sprintf "cannot resolve host %S" host))

let sockaddr_of = function
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  | Inet (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (resolve_host host, port))

type config = {
  max_connections : int;
  max_inflight : int;  (* admission cap below max_connections; 0 = off *)
  idle_timeout : float;
  write_timeout : float;
  listen_backlog : int;
  read_buffer_size : int;
  tcp_nodelay : bool;
  mode : mode;
  workers : int;
  conn_write_cap : int;  (* evloop per-conn pending-write bytes; 0 = off *)
  drain_deadline : float;  (* evloop slow-client kill deadline; <= 0 = off *)
}

let default_config =
  {
    max_connections = 1024;
    max_inflight = 0;
    idle_timeout = 0.0;
    write_timeout = 30.0;
    listen_backlog = 64;
    read_buffer_size = 16384;
    tcp_nodelay = true;
    mode = Threaded;
    workers = 0;
    conn_write_cap = 1_048_576;
    drain_deadline = 30.0;
  }

let effective_workers config =
  if config.workers > 0 then config.workers
  else Domain.recommended_domain_count ()

let k_accept = Rp_trace.intern "server.accept"
let k_req = Rp_trace.intern "req.text"
let k_req_bin = Rp_trace.intern "req.binary"

(* ---------------------------------------------------------------------- *)
(* Threaded plane: one thread per connection, blocking I/O.               *)
(* ---------------------------------------------------------------------- *)

type threaded = {
  (* Live connections, keyed by a private id. The accept loop registers
     entries; each connection thread removes (and closes) its own under
     the same mutex, so [stop] can shutdown every live fd without racing
     a close-then-reuse. *)
  conns : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  conns_mutex : Mutex.t;
  (* Read buffers outlive connections: a finished thread parks its buffer
     here and the next accept reuses it instead of allocating
     [read_buffer_size] fresh bytes per connection. *)
  mutable buffer_pool : Bytes.t list;
}

type plane = Threads of threaded | Evloop of Evloop.t

type t = {
  addr : address;
  config : config;
  listen_fd : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  running : bool Atomic.t;
  accepted : int Atomic.t;
  rejected : int Atomic.t;
  plane : plane;
}

let send config fd s =
  let deadline =
    if config.write_timeout > 0.0 then
      Some (Unix.gettimeofday () +. config.write_timeout)
    else None
  in
  Io.write_all ~fault:"server.write.partial" ?deadline fd s

let recv config fd buf =
  Rp_fault.point "server.conn.reset";
  let timeout =
    if config.idle_timeout > 0.0 then Some config.idle_timeout else None
  in
  Io.read ~fault:"server.read.split" ?timeout fd buf

let serve_text config store fd buf inbuf =
  let parser = Protocol.Parser.create ~inbuf () in
  let closing = ref false in
  let drain () =
    let rec go () =
      match Protocol.Parser.next parser with
      | None -> ()
      | Some (Error msg) ->
          let reply =
            if msg = "ERROR" then Protocol.Error_reply
            else Protocol.Client_error msg
          in
          send config fd (Protocol.encode_response reply);
          go ()
      | Some (Ok Protocol.Quit) -> closing := true
      | Some (Ok request) ->
          (* Request-tier spans on the threaded plane share domain 0's
             ring across connection threads; interleavings are tolerated
             (flight-recorder semantics), the event-loop plane is the
             one with exact per-domain nesting. *)
          Rp_trace.request_begin k_req;
          (match Dispatch.handle store request with
          | Some response -> send config fd (Protocol.encode_response response)
          | None -> ());
          Rp_trace.request_end ();
          go ()
    in
    go ()
  in
  drain ();
  while not !closing do
    let n = recv config fd buf in
    if n = 0 then closing := true
    else begin
      Protocol.Inbuf.feed_bytes inbuf buf n;
      drain ()
    end
  done

let serve_binary config store fd buf inbuf =
  let parser = Binary_protocol.Parser.create ~inbuf () in
  let closing = ref false in
  let drain () =
    let rec go () =
      match Binary_protocol.Parser.next parser with
      | None -> ()
      | Some (Error _) ->
          (* Binary framing errors are unrecoverable: drop the connection,
             as stock memcached does. *)
          closing := true
      | Some (Ok request) ->
          Rp_trace.request_begin k_req_bin;
          List.iter
            (fun response ->
              send config fd (Binary_protocol.encode_response response))
            (Binary_server.handle store request);
          Rp_trace.request_end ();
          if Binary_server.quit_requested request then closing := true else go ()
    in
    go ()
  in
  drain ();
  while not !closing do
    let n = recv config fd buf in
    if n = 0 then closing := true
    else begin
      Protocol.Inbuf.feed_bytes inbuf buf n;
      drain ()
    end
  done

let take_buffer t th =
  Mutex.lock th.conns_mutex;
  let buf =
    match th.buffer_pool with
    | b :: rest when Bytes.length b = t.config.read_buffer_size ->
        th.buffer_pool <- rest;
        Some b
    | _ ->
        (* Size changed or pool empty: drop any stale pool. *)
        if th.buffer_pool <> [] then th.buffer_pool <- [];
        None
  in
  Mutex.unlock th.conns_mutex;
  match buf with
  | Some b -> b
  | None -> Bytes.create t.config.read_buffer_size

let return_buffer th buf =
  Mutex.lock th.conns_mutex;
  (* A handful of parked buffers is plenty; beyond that let them collect. *)
  if List.length th.buffer_pool < 64 then th.buffer_pool <- buf :: th.buffer_pool;
  Mutex.unlock th.conns_mutex

(* Protocol auto-detection, as in stock memcached: the first byte of a
   connection decides (0x80 = binary request magic, anything else = text).
   An idle timeout, an injected tear, or any socket error closes the
   connection; the fd itself is closed by the registry cleanup in
   [spawn_connection]. *)
let serve_connection t th store fd =
  let buf = take_buffer t th in
  (try
     let n = recv t.config fd buf in
     if n > 0 then begin
       let inbuf = Protocol.Inbuf.create () in
       Protocol.Inbuf.feed_bytes inbuf buf n;
       if Bytes.get buf 0 = Binary_protocol.magic_request_byte then
         serve_binary t.config store fd buf inbuf
       else serve_text t.config store fd buf inbuf
     end
   with
  | Unix.Unix_error _ | End_of_file | Io.Timeout -> ()
  | Rp_fault.Injected _ -> ());
  return_buffer th buf

let reject fd msg =
  (try
     Io.write_all fd (Protocol.encode_response (Protocol.Server_error msg))
   with Unix.Unix_error _ | Rp_fault.Injected _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let spawn_connection t th store id fd =
  (* Hold [ready] until the registry entry exists, so the thread's cleanup
     can never run before its registration. *)
  let ready = Mutex.create () in
  Mutex.lock ready;
  let thread =
    Thread.create
      (fun () ->
        Mutex.lock ready;
        Mutex.unlock ready;
        serve_connection t th store fd;
        Rp_obs.Trace.emit Rp_obs.Trace.default ~arg:id "server.conn.drop";
        Mutex.lock th.conns_mutex;
        Hashtbl.remove th.conns id;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Mutex.unlock th.conns_mutex)
      ()
  in
  Mutex.lock th.conns_mutex;
  Hashtbl.add th.conns id (fd, thread);
  Mutex.unlock th.conns_mutex;
  Mutex.unlock ready

let live t =
  match t.plane with
  | Threads th ->
      Mutex.lock th.conns_mutex;
      let n = Hashtbl.length th.conns in
      Mutex.unlock th.conns_mutex;
      n
  | Evloop ev -> Evloop.live_connections ev

(* The admission cap: [max_inflight] (when set) trims below
   [max_connections] — the guard plane's knob for "the workers are
   saturated; new sockets only add queueing". *)
let admission_cap config =
  if config.max_inflight > 0 then
    min config.max_inflight config.max_connections
  else config.max_connections

(* What (if anything) to refuse this accept with. Emergency closes the
   door entirely: established connections keep their wait-free GETs, but
   new sockets would only deepen the overload. *)
let refusal t store =
  if live t >= admission_cap t.config then
    Some
      (if t.config.max_inflight > 0 && live t < t.config.max_connections then
         "overloaded"
       else "too many connections")
  else
    match Store.guard store with
    | Some g when not (Rp_guard.accepting g) -> Some "overloaded"
    | _ -> None

let accept_loop t store =
  let next_id = ref 0 in
  while Atomic.get t.running do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        if not (Atomic.get t.running) then (
          try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          match refusal t store with
          | Some msg ->
              Atomic.incr t.rejected;
              Rp_obs.Trace.emit Rp_obs.Trace.default ~arg:(-1)
                "server.conn.drop";
              reject fd msg
          | None -> (
              let id = !next_id in
              incr next_id;
              Atomic.incr t.accepted;
              if t.config.tcp_nodelay then Io.set_tcp_nodelay fd;
              Rp_obs.Trace.emit Rp_obs.Trace.default ~arg:id
                "server.conn.accept";
              Rp_trace.instant ~arg:id k_accept;
              match t.plane with
              | Threads th -> spawn_connection t th store id fd
              | Evloop ev -> Evloop.submit ev ~id fd)
        end
    | exception Unix.Unix_error _ -> ()
  done

let start ~store ?(config = default_config) addr =
  if config.max_connections < 1 then
    invalid_arg "Server.start: max_connections < 1";
  if config.listen_backlog < 1 then
    invalid_arg "Server.start: listen_backlog < 1";
  if config.read_buffer_size < 1 then
    invalid_arg "Server.start: read_buffer_size < 1";
  Io.ignore_sigpipe ();
  (match addr with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ | Inet _ -> ());
  let domain, sockaddr = sockaddr_of addr in
  let listen_fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd sockaddr;
  Unix.listen listen_fd config.listen_backlog;
  (* Port 0 asks the kernel for any free port; reflect the one it picked
     back into the advertised address so [address] names a reachable
     endpoint (children spawned with [-p 0] print it for their parent). *)
  let addr =
    match (addr, Unix.getsockname listen_fd) with
    | Tcp 0, Unix.ADDR_INET (_, p) -> Tcp p
    | Inet (h, 0), Unix.ADDR_INET (_, p) -> Inet (h, p)
    | _ -> addr
  in
  let plane =
    match config.mode with
    | Threaded ->
        Threads
          {
            conns = Hashtbl.create 64;
            conns_mutex = Mutex.create ();
            buffer_pool = [];
          }
    | Event_loop ->
        Evloop
          (Evloop.create ~store
             {
               Evloop.workers = effective_workers config;
               idle_timeout = config.idle_timeout;
               read_buffer_size = config.read_buffer_size;
               conn_write_cap = config.conn_write_cap;
               drain_deadline = config.drain_deadline;
             })
  in
  let t =
    {
      addr;
      config;
      listen_fd;
      accept_thread = None;
      running = Atomic.make true;
      accepted = Atomic.make 0;
      rejected = Atomic.make 0;
      plane;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t store) ());
  let reg = Store.registry store in
  let fn c () = float_of_int (Atomic.get c) in
  Rp_obs.Registry.fn_counter reg ~help:"connections accepted"
    "server_connections_accepted_total" (fn t.accepted);
  Rp_obs.Registry.fn_counter reg ~help:"connections rejected at the cap"
    "server_connections_rejected_total" (fn t.rejected);
  Rp_obs.Registry.gauge reg ~help:"live connections" "server_connections_active"
    (fun () -> float_of_int (live t));
  t

let stop t =
  Atomic.set t.running false;
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (match t.plane with
  | Threads th ->
      (* Wake every in-flight connection thread, then drain them. Shutdown
         runs under the registry mutex so it cannot race a thread's
         close-and-remove (and thus can never hit a recycled descriptor). *)
      Mutex.lock th.conns_mutex;
      let threads =
        Hashtbl.fold
          (fun _ (fd, thread) acc ->
            (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
            thread :: acc)
          th.conns []
      in
      Mutex.unlock th.conns_mutex;
      List.iter Thread.join threads
  | Evloop ev -> Evloop.stop ev);
  match t.addr with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ | Inet _ -> ()

let active_connections t = live t
let capacity t = admission_cap t.config
let rejected_connections t = Atomic.get t.rejected
let address t = t.addr

let workers t =
  match t.plane with Threads _ -> 0 | Evloop ev -> Evloop.worker_count ev
