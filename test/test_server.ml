(* Server dispatch (pure) and full socket integration via the client. *)

open Memcached

let make_store () = Store.create ~backend:Store.Rp ~initial_size:64 ()

let storage ?(flags = 0) ?(exptime = 0) ?(noreply = false) key data :
    Protocol.storage =
  { key; flags; exptime; noreply; data }

let test_dispatch_set_get () =
  let store = make_store () in
  (match Server.handle store (Protocol.Set (storage "k" "v")) with
  | Some Protocol.Stored -> ()
  | _ -> Alcotest.fail "set not stored");
  match Server.handle store (Protocol.Get [ "k"; "ghost" ]) with
  | Some (Protocol.Values [ v ]) ->
      Alcotest.(check string) "value" "v" v.vdata;
      Alcotest.(check string) "key echoed" "k" v.vkey
  | _ -> Alcotest.fail "get wrong"

let test_dispatch_noreply () =
  let store = make_store () in
  Alcotest.(check bool) "noreply set suppressed" true
    (Server.handle store (Protocol.Set (storage ~noreply:true "k" "v")) = None);
  Alcotest.(check bool) "stored anyway" true (Store.get store "k" <> None);
  Alcotest.(check bool) "noreply delete suppressed" true
    (Server.handle store (Protocol.Delete { key = "k"; noreply = true }) = None)

let test_dispatch_delete () =
  let store = make_store () in
  ignore (Server.handle store (Protocol.Set (storage "k" "v")));
  (match Server.handle store (Protocol.Delete { key = "k"; noreply = false }) with
  | Some Protocol.Deleted -> ()
  | _ -> Alcotest.fail "delete should report Deleted");
  match Server.handle store (Protocol.Delete { key = "k"; noreply = false }) with
  | Some Protocol.Not_found -> ()
  | _ -> Alcotest.fail "second delete should report Not_found"

let test_dispatch_counters () =
  let store = make_store () in
  ignore (Server.handle store (Protocol.Set (storage "c" "5")));
  (match Server.handle store (Protocol.Incr { key = "c"; delta = 2; noreply = false }) with
  | Some (Protocol.Number 7) -> ()
  | _ -> Alcotest.fail "incr wrong");
  (match Server.handle store (Protocol.Incr { key = "ghost"; delta = 1; noreply = false }) with
  | Some Protocol.Not_found -> ()
  | _ -> Alcotest.fail "incr on absent wrong");
  ignore (Server.handle store (Protocol.Set (storage "s" "text")));
  match Server.handle store (Protocol.Incr { key = "s"; delta = 1; noreply = false }) with
  | Some (Protocol.Client_error _) -> ()
  | _ -> Alcotest.fail "incr on non-numeric should be CLIENT_ERROR"

let test_dispatch_gets_cas_flow () =
  let store = make_store () in
  ignore (Server.handle store (Protocol.Set (storage "k" "v1")));
  let unique =
    match Server.handle store (Protocol.Gets [ "k" ]) with
    | Some (Protocol.Values [ { vcas = Some c; _ } ]) -> c
    | _ -> Alcotest.fail "gets lost cas"
  in
  (match Server.handle store (Protocol.Cas (storage "k" "v2", unique)) with
  | Some Protocol.Stored -> ()
  | _ -> Alcotest.fail "cas with fresh unique failed");
  match Server.handle store (Protocol.Cas (storage "k" "v3", unique)) with
  | Some Protocol.Exists -> ()
  | _ -> Alcotest.fail "stale cas accepted"

let test_dispatch_admin () =
  let store = make_store () in
  (match Server.handle store Protocol.Version with
  | Some (Protocol.Version_reply v) ->
      Alcotest.(check string) "version string" Server.version_string v
  | _ -> Alcotest.fail "version wrong");
  (match Server.handle store (Protocol.Stats None) with
  | Some (Protocol.Stats_reply kvs) ->
      Alcotest.(check bool) "stats non-empty" true (List.length kvs > 0)
  | _ -> Alcotest.fail "stats wrong");
  ignore (Server.handle store (Protocol.Set (storage "k" "v")));
  (match Server.handle store (Protocol.Flush_all { noreply = false }) with
  | Some Protocol.Ok_reply -> ()
  | _ -> Alcotest.fail "flush_all wrong");
  Alcotest.(check int) "flushed" 0 (Store.items store);
  Alcotest.(check bool) "quit closes" true (Server.handle store Protocol.Quit = None)

(* --- socket integration ---

   Every socket test runs against both store configurations the server
   binary serves: the rp backend on a QSBR store (the paper
   configuration, [--backend rp]) and the lock backend on a memb store
   ([--backend lock]). A "plane" bundles the server config with the
   store's backend and RCU mode. *)

type plane = {
  config : Server.config;
  backend : Store.backend;
  rcu_mode : Store.rcu_mode;
}

let ev_plane =
  {
    config = { Server.default_config with Server.workers = 2 };
    backend = Store.Rp;
    rcu_mode = Store.Qsbr;
  }

let lock_plane = { ev_plane with backend = Store.Lock; rcu_mode = Store.Memb }

let with_server ?(config = Server.default_config) ?(backend = Store.Rp)
    ?(rcu_mode = Store.Memb) f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-mc-test-%d.sock" (Unix.getpid ()))
  in
  let store = Store.create ~backend ~rcu_mode ~initial_size:64 () in
  let server = Server.start ~store ~config (Server.Unix_socket path) in
  let finish () = Server.stop server in
  (match f ~server (Server.Unix_socket path) store with
  | () -> finish ()
  | exception e ->
      finish ();
      raise e)

let with_plane { config; backend; rcu_mode } f =
  with_server ~config ~backend ~rcu_mode f

let test_socket_roundtrip plane () =
  with_plane plane (fun ~server:_ addr _store ->
      let client = Client.connect addr in
      Alcotest.(check bool) "set" true (Client.set client ~key:"k" ~data:"hello" ());
      (match Client.get client "k" with
      | Some v -> Alcotest.(check string) "get" "hello" v.vdata
      | None -> Alcotest.fail "get missed");
      Alcotest.(check (option string)) "miss" None
        (Option.map (fun (v : Protocol.value) -> v.vdata) (Client.get client "ghost"));
      Alcotest.(check bool) "delete" true (Client.delete client "k");
      Alcotest.(check bool) "delete again" false (Client.delete client "k");
      Client.close client)

let test_socket_counters_and_touch plane () =
  with_plane plane (fun ~server:_ addr _store ->
      let client = Client.connect addr in
      ignore (Client.set client ~key:"c" ~data:"41" ());
      Alcotest.(check (option int)) "incr" (Some 42) (Client.incr client "c" 1);
      Alcotest.(check (option int)) "decr" (Some 40) (Client.decr client "c" 2);
      Alcotest.(check (option int)) "incr absent" None (Client.incr client "ghost" 1);
      Alcotest.(check bool) "touch" true (Client.touch client ~key:"c" ~exptime:100);
      Client.close client)

let test_socket_large_value plane () =
  with_plane plane (fun ~server:_ addr _store ->
      let client = Client.connect addr in
      (* Larger than the server's 16 KiB read buffer: exercises incremental
         parsing across multiple reads. *)
      let big = String.init 100_000 (fun i -> Char.chr (33 + (i mod 90))) in
      Alcotest.(check bool) "set big" true (Client.set client ~key:"big" ~data:big ());
      (match Client.get client "big" with
      | Some v -> Alcotest.(check int) "big length" 100_000 (String.length v.vdata)
      | None -> Alcotest.fail "big value lost");
      (match Client.get client "big" with
      | Some v -> Alcotest.(check bool) "big content intact" true (v.vdata = big)
      | None -> Alcotest.fail "big value lost on re-read");
      Client.close client)

let test_socket_multi_clients plane () =
  with_plane plane (fun ~server:_ addr _store ->
      let clients = List.init 4 (fun _ -> Client.connect addr) in
      List.iteri
        (fun i c ->
          Alcotest.(check bool) "set" true
            (Client.set c ~key:(Printf.sprintf "k%d" i) ~data:(string_of_int i) ()))
        clients;
      (* Every client sees every other client's writes. *)
      List.iter
        (fun c ->
          for i = 0 to 3 do
            match Client.get c (Printf.sprintf "k%d" i) with
            | Some v -> Alcotest.(check string) "cross visibility" (string_of_int i) v.vdata
            | None -> Alcotest.fail "cross-client value missing"
          done)
        clients;
      List.iter Client.close clients)

let test_socket_multi_get plane () =
  with_plane plane (fun ~server:_ addr _store ->
      let client = Client.connect addr in
      ignore (Client.set client ~key:"a" ~data:"1" ());
      ignore (Client.set client ~key:"b" ~data:"2" ());
      let values = Client.get_many client [ "a"; "ghost"; "b" ] in
      Alcotest.(check (list string)) "present values" [ "1"; "2" ]
        (List.map (fun (v : Protocol.value) -> v.vdata) values);
      Client.close client)

let test_socket_stats_and_version plane () =
  with_plane plane (fun ~server:_ addr _store ->
      let client = Client.connect addr in
      Alcotest.(check string) "version" Server.version_string (Client.version client);
      let stats = Client.stats client in
      Alcotest.(check bool) "stats has backend" true
        (List.mem_assoc "backend" stats);
      Client.flush_all client;
      Client.close client)

let test_socket_protocol_error_keeps_connection plane () =
  with_plane plane (fun ~server:_ addr _store ->
      (* Send garbage, then a valid request on the same connection. *)
      let client = Client.connect addr in
      (match Client.request client (Protocol.Get [ "placeholder" ]) with
      | Protocol.Values [] -> ()
      | _ -> Alcotest.fail "warmup failed");
      Client.close client;
      (* Raw socket: garbage line then valid get. *)
      let path = match addr with Server.Unix_socket p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let send s = ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s)) in
      send "not a command\r\nversion\r\n";
      let buf = Bytes.create 4096 in
      let rec read_all acc =
        if
          (* Stop once we have both the error reply and the version. *)
          let s = acc in
          String.length s > 0
          && String.split_on_char '\n' s |> List.length >= 3
        then acc
        else begin
          let n = Unix.read fd buf 0 4096 in
          if n = 0 then acc else read_all (acc ^ Bytes.sub_string buf 0 n)
        end
      in
      let reply = read_all "" in
      Unix.close fd;
      Alcotest.(check bool) "error reported" true
        (String.length reply >= 5 && String.sub reply 0 5 = "ERROR");
      Alcotest.(check bool) "connection survived to serve version" true
        (let needle = "VERSION" in
         let rec find i =
           i + String.length needle <= String.length reply
           && (String.sub reply i (String.length needle) = needle || find (i + 1))
         in
         find 0))

(* --- hardening: connection cap, timeouts, fault tolerance, drain --- *)

let test_max_connections_cap plane () =
  let config = { plane.config with Server.max_connections = 1 } in
  with_plane { plane with config } (fun ~server addr _store ->
      let c1 = Client.connect addr in
      Alcotest.(check bool) "first client served" true
        (Client.set c1 ~key:"k" ~data:"v" ());
      (* Second connection must be turned away with SERVER_ERROR. *)
      let path = match addr with Server.Unix_socket p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let buf = Bytes.create 4096 in
      let rec read_all acc =
        match Unix.read fd buf 0 4096 with
        | 0 -> acc
        | n -> read_all (acc ^ Bytes.sub_string buf 0 n)
        | exception Unix.Unix_error _ -> acc
      in
      let reply = read_all "" in
      Unix.close fd;
      Alcotest.(check bool) "rejected with SERVER_ERROR" true
        (String.length reply >= 12 && String.sub reply 0 12 = "SERVER_ERROR");
      Alcotest.(check bool) "rejection counted" true
        (Server.rejected_connections server >= 1);
      (* The first connection is unaffected by the rejection. *)
      (match Client.get c1 "k" with
      | Some v -> Alcotest.(check string) "still served" "v" v.vdata
      | None -> Alcotest.fail "existing connection broken by rejection");
      Client.close c1)

let test_idle_timeout_closes_connection plane () =
  let config = { plane.config with Server.idle_timeout = 0.05 } in
  with_plane { plane with config } (fun ~server:_ addr _store ->
      let c = Client.connect addr in
      Alcotest.(check bool) "first op" true (Client.set c ~key:"k" ~data:"v" ());
      Unix.sleepf 0.2;
      (* The server timed the connection out while we slept. *)
      Alcotest.(check bool) "idle connection dropped" true
        (match Client.get c "k" with
        | _ -> false
        | exception (Client.Disconnected _ | Unix.Unix_error _) -> true);
      Client.close c;
      (* A retrying client rides the drop transparently. *)
      let c2 = Client.connect ~retries:2 addr in
      ignore (Client.set c2 ~key:"k2" ~data:"w" ());
      Unix.sleepf 0.2;
      (match Client.get c2 "k2" with
      | Some v -> Alcotest.(check string) "reconnect and retry" "w" v.vdata
      | None -> Alcotest.fail "value lost across reconnect");
      Client.close c2)

let test_torn_writes_still_correct plane () =
  with_plane plane (fun ~server:_ addr _store ->
      let c = Client.connect addr in
      let big = String.init 20_000 (fun i -> Char.chr (33 + (i mod 90))) in
      Alcotest.(check bool) "set big" true (Client.set c ~key:"big" ~data:big ());
      Rp_fault.arm "server.write.partial" ~trigger:Rp_fault.Always
        ~action:(Rp_fault.Truncate_io 3);
      Fun.protect
        ~finally:(fun () -> Rp_fault.disarm "server.write.partial")
        (fun () ->
          match Client.get c "big" with
          | Some v ->
              Alcotest.(check bool) "payload intact over 3-byte writes" true
                (v.vdata = big)
          | None -> Alcotest.fail "value lost under torn writes");
      Alcotest.(check bool) "writes were actually torn" true
        (Rp_fault.fires "server.write.partial" > 100);
      Client.close c)

let test_conn_reset_with_client_retry plane () =
  with_plane plane (fun ~server:_ addr _store ->
      let c = Client.connect ~retries:4 addr in
      Alcotest.(check bool) "seed" true (Client.set c ~key:"k" ~data:"v" ());
      Rp_fault.arm "server.conn.reset" ~trigger:Rp_fault.One_shot
        ~action:Rp_fault.Raise;
      Fun.protect
        ~finally:(fun () -> Rp_fault.disarm "server.conn.reset")
        (fun () ->
          (* The one-shot reset tears the connection at the server's next
             read; the retrying client reconnects and completes both ops. *)
          ignore (Client.set c ~key:"k2" ~data:"w" ());
          (match Client.get c "k" with
          | Some v -> Alcotest.(check string) "survived the reset" "v" v.vdata
          | None -> Alcotest.fail "value lost across injected reset");
          Alcotest.(check int) "reset fired" 1 (Rp_fault.fires "server.conn.reset"));
      Client.close c)

let test_stop_drains_connections { config; backend; rcu_mode } () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-mc-drain-%d.sock" (Unix.getpid ()))
  in
  let store = Store.create ~backend ~rcu_mode ~initial_size:64 () in
  let server = Server.start ~store ~config (Server.Unix_socket path) in
  let clients =
    List.init 3 (fun _ -> Client.connect (Server.Unix_socket path))
  in
  List.iteri
    (fun i c ->
      ignore (Client.set c ~key:(Printf.sprintf "k%d" i) ~data:"v" ()))
    clients;
  Alcotest.(check bool) "connections live" true
    (Server.active_connections server >= 1);
  (* stop must close every connection and join the worker domains. *)
  Server.stop server;
  Alcotest.(check int) "all connections drained" 0
    (Server.active_connections server);
  List.iter (fun c -> try Client.close c with _ -> ()) clients

(* --- pipelining: many requests per segment, segments splitting requests --- *)

let connect_raw addr =
  let path =
    match addr with Server.Unix_socket p -> p | _ -> assert false
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_all fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let recv_exactly fd len =
  let buf = Bytes.create len in
  let off = ref 0 in
  while !off < len do
    let n = Unix.read fd buf !off (len - !off) in
    if n = 0 then failwith "server closed early";
    off := !off + n
  done;
  Bytes.to_string buf

let enc = Protocol.encode_response

let value key data : Protocol.value =
  { vkey = key; vflags = 0; vdata = data; vcas = None }

(* Six commands; responses must come back complete, in order, on the
   right connection — regardless of how the request bytes were framed. *)
let pipeline_request =
  String.concat ""
    [
      "set a 0 0 1\r\n1\r\n";
      "set b 0 0 1\r\n2\r\n";
      "get a\r\n";
      "get b\r\n";
      "get a b\r\n";
      "incr ghost 1\r\n";
    ]

let pipeline_expected =
  String.concat ""
    [
      enc Protocol.Stored;
      enc Protocol.Stored;
      enc (Protocol.Values [ value "a" "1" ]);
      enc (Protocol.Values [ value "b" "2" ]);
      enc (Protocol.Values [ value "a" "1"; value "b" "2" ]);
      enc Protocol.Not_found;
    ]

let test_pipelined_single_segment plane () =
  with_plane plane (fun ~server:_ addr _store ->
      let fd = connect_raw addr in
      (* Everything in one write: the server must drain all six requests
         from one wakeup and answer each. *)
      send_all fd pipeline_request;
      let got = recv_exactly fd (String.length pipeline_expected) in
      Unix.close fd;
      Alcotest.(check string) "batched responses in order" pipeline_expected got)

let test_pipelined_split_segments plane () =
  with_plane plane (fun ~server:_ addr _store ->
      let fd = connect_raw addr in
      (* Same stream, dribbled 4 bytes at a time: every command and data
         block straddles segment boundaries. *)
      let len = String.length pipeline_request in
      let off = ref 0 in
      while !off < len do
        let n = min 4 (len - !off) in
        send_all fd (String.sub pipeline_request !off n);
        off := !off + n;
        Unix.sleepf 0.001
      done;
      let got = recv_exactly fd (String.length pipeline_expected) in
      Unix.close fd;
      Alcotest.(check string) "split stream same responses" pipeline_expected
        got)

let test_binary_frame_straddles_reads plane () =
  with_plane plane (fun ~server:_ addr _store ->
      let fd = connect_raw addr in
      let set_req =
        Binary_protocol.encode_request
          {
            opcode = Binary_protocol.Set;
            key = "bk";
            value = "bv";
            extras = Binary_protocol.set_extras ~flags:0 ~exptime:0;
            opaque = 1;
            cas = 0;
          }
      in
      let get_req =
        Binary_protocol.encode_request
          {
            opcode = Binary_protocol.Get;
            key = "bk";
            value = "";
            extras = "";
            opaque = 2;
            cas = 0;
          }
      in
      let stream = set_req ^ get_req in
      (* First write ends inside the SET frame's 24-byte header. *)
      send_all fd (String.sub stream 0 10);
      Unix.sleepf 0.02;
      send_all fd (String.sub stream 10 (String.length stream - 10));
      let rp = Binary_protocol.Response_parser.create () in
      let buf = Bytes.create 4096 in
      let responses = ref [] in
      while List.length !responses < 2 do
        match Binary_protocol.Response_parser.next rp with
        | Some (Ok r) -> responses := r :: !responses
        | Some (Error msg) ->
            Alcotest.fail ("binary response parse error: " ^ msg)
        | None ->
            let n = Unix.read fd buf 0 4096 in
            if n = 0 then Alcotest.fail "server closed mid-binary";
            Binary_protocol.Response_parser.feed rp (Bytes.sub_string buf 0 n)
      done;
      Unix.close fd;
      match List.rev !responses with
      | [ (set_r : Binary_protocol.response); get_r ] ->
          Alcotest.(check int) "set status ok" 0
            (Binary_protocol.status_to_int set_r.status);
          Alcotest.(check int) "get status ok" 0
            (Binary_protocol.status_to_int get_r.status);
          Alcotest.(check string) "get value" "bv" get_r.r_value;
          Alcotest.(check int) "opaque echoed" 2 get_r.r_opaque
      | _ -> assert false)

(* Sharded routing: several connections fire pipelined bursts for their
   own key before any response is read; each must get back exactly its
   own values, in order — nothing crossed between workers. *)
let test_multiworker_routing () =
  let config = { Server.default_config with Server.workers = 4 } in
  with_server ~config ~rcu_mode:Store.Qsbr (fun ~server addr _store ->
      Alcotest.(check int) "worker domains" 4 (Server.workers server);
      let n = 8 and reps = 25 in
      let fds = Array.init n (fun _ -> connect_raw addr) in
      Array.iteri
        (fun i fd ->
          let data = Printf.sprintf "val%d" i in
          send_all fd
            (Printf.sprintf "set rk%d 0 0 %d\r\n%s\r\n" i
               (String.length data) data);
          let expect = enc Protocol.Stored in
          Alcotest.(check string) "seed stored" expect
            (recv_exactly fd (String.length expect)))
        fds;
      Array.iteri
        (fun i fd ->
          send_all fd
            (String.concat ""
               (List.init reps (fun _ -> Printf.sprintf "get rk%d\r\n" i))))
        fds;
      Array.iteri
        (fun i fd ->
          let one =
            enc
              (Protocol.Values
                 [
                   value (Printf.sprintf "rk%d" i) (Printf.sprintf "val%d" i);
                 ])
          in
          let expected = String.concat "" (List.init reps (fun _ -> one)) in
          let got = recv_exactly fd (String.length expected) in
          Alcotest.(check bool)
            (Printf.sprintf "connection %d got only its own values" i)
            true (got = expected))
        fds;
      Array.iter Unix.close fds)

(* Descriptor ceiling: the workers poll with [select], which holds only
   descriptors below 1024. Connections are opened until the server
   refuses one or this process runs out of descriptors. Every
   connection must get [STORED] or the hard cap's refusal — none may
   hang — and once they are all closed a fresh connection is served, so
   no worker died. With a soft fd limit above ~2100 the server's fds
   reach 1024 and the refusal path runs; below it, the loop ends at
   EMFILE. A spare descriptor is held while each client socket is made
   and released just before [connect], so the server's [accept] always
   finds one free. *)
let test_fd_ceiling plane () =
  with_plane plane (fun ~server addr _store ->
      let path =
        match addr with Server.Unix_socket p -> p | _ -> assert false
      in
      let out_of_fds = function
        | Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> true
        | _ -> false
      in
      let open_one () =
        match Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 with
        | exception e when out_of_fds e -> None
        | spare -> (
            match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
            | exception e when out_of_fds e ->
                Unix.close spare;
                None
            | fd ->
                Unix.close spare;
                Unix.connect fd (Unix.ADDR_UNIX path);
                Some fd)
      in
      let buf = Bytes.create 64 in
      let reply fd key =
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        (* A refused socket may be closed before the request lands; its
           refusal is still there to read. *)
        (try send_all fd (Printf.sprintf "set %s 0 0 1\r\nx\r\n" key)
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
        let rec line acc =
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> acc
          | n ->
              let acc = acc ^ Bytes.sub_string buf 0 n in
              if String.ends_with ~suffix:"\r\n" acc then acc else line acc
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              Alcotest.failf "connection for %s got no reply" key
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> acc
        in
        line ""
      in
      let refusal = "SERVER_ERROR too many connections\r\n" in
      let rec fill served =
        if List.length served > 2 * Server.default_config.max_connections
        then Alcotest.fail "neither refused nor out of descriptors";
        match open_one () with
        | None -> (served, false)
        | Some fd -> (
            match reply fd (Printf.sprintf "fd%d" (List.length served)) with
            | "STORED\r\n" -> fill (fd :: served)
            | r ->
                Unix.close fd;
                Alcotest.(check string) "refused with the hard cap" refusal r;
                (served, true))
      in
      let served, refused = fill [] in
      if refused then
        Alcotest.(check bool) "refusal counted" true
          (Server.rejected_connections server >= 1);
      Alcotest.(check bool) "served before the limit" true (served <> []);
      List.iter Unix.close served;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Server.active_connections server > 0
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.01
      done;
      let c = Client.connect addr in
      Alcotest.(check bool) "fresh connection served" true
        (Client.set c ~key:"fresh" ~data:"v" ());
      Client.close c)

(* Descriptor exhaustion: with no descriptor free, accept(2) fails with
   EMFILE at once — it takes the new descriptor before it waits — for as
   long as the shortage lasts. The accept loop must pause rather than
   spin: over ~200 ms a spin counts hundreds of thousands of failures, a
   10 ms pause about twenty. Clients left in the backlog meanwhile must
   be served once descriptors are released. Descriptors are exhausted
   in-process by [dup], once the accept thread is parked in accept(2).
   A parked accept already holds a descriptor, so the first client may
   be accepted with it and the loop may park again on any descriptor
   freed meanwhile; taking every free one again before the second
   client connects leaves the loop none to park on. *)
let test_accept_fd_exhausted plane () =
  with_plane plane (fun ~server:_ addr store ->
      let path =
        match addr with Server.Unix_socket p -> p | _ -> assert false
      in
      let clients =
        List.init 2 (fun _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0)
      in
      let spare = List.hd clients in
      Unix.sleepf 0.05;
      let rec exhaust held n =
        if n >= 1 lsl 17 then (held, false) (* soft limit too high to reach *)
        else
          match Unix.dup spare with
          | fd -> exhaust (fd :: held) (n + 1)
          | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
              (held, true)
      in
      (* A Unix-domain connect takes no new descriptor on this side. *)
      let held, exhausted =
        List.fold_left
          (fun (held, exhausted) client ->
            let more, ok = exhaust held (List.length held) in
            Unix.connect client (Unix.ADDR_UNIX path);
            Unix.sleepf 0.02;
            (more, exhausted && ok))
          ([], true) clients
      in
      Unix.sleepf 0.2;
      let failures =
        Rp_obs.Registry.value (Store.registry store)
          "server_accept_fd_exhausted_total"
      in
      (* Lowest first: a socket accepted meanwhile gets a number the
         workers can poll. *)
      List.iter Unix.close (List.rev held);
      if exhausted then begin
        let n = Option.value failures ~default:0. in
        Alcotest.(check bool)
          (Printf.sprintf
             "accept failed %.0f times while exhausted: paused, not spun" n)
          true
          (n >= 1. && n <= 100.)
      end;
      List.iteri
        (fun i client ->
          Unix.setsockopt_float client Unix.SO_RCVTIMEO 5.0;
          send_all client (Printf.sprintf "set pending%d 0 0 1\r\nx\r\n" i);
          Alcotest.(check string) "pending client served" "STORED\r\n"
            (recv_exactly client 8);
          Unix.close client)
        clients)

let socket_cases plane =
  let tc name f = Alcotest.test_case name `Quick (f plane) in
  [
    tc "round trip" test_socket_roundtrip;
    tc "counters and touch" test_socket_counters_and_touch;
    tc "large value" test_socket_large_value;
    tc "multiple clients" test_socket_multi_clients;
    tc "multi get" test_socket_multi_get;
    tc "stats and version" test_socket_stats_and_version;
    tc "protocol error keeps connection" test_socket_protocol_error_keeps_connection;
    tc "pipelined single segment" test_pipelined_single_segment;
    tc "pipelined split segments" test_pipelined_split_segments;
    tc "binary frame straddles reads" test_binary_frame_straddles_reads;
  ]

let hardening_cases plane =
  let tc name f = Alcotest.test_case name `Quick (f plane) in
  [
    tc "max connections cap" test_max_connections_cap;
    tc "idle timeout" test_idle_timeout_closes_connection;
    tc "torn writes" test_torn_writes_still_correct;
    tc "conn reset + retry" test_conn_reset_with_client_retry;
    tc "stop drains" test_stop_drains_connections;
  ]

let () =
  Alcotest.run "server"
    [
      ( "dispatch",
        [
          Alcotest.test_case "set/get" `Quick test_dispatch_set_get;
          Alcotest.test_case "noreply" `Quick test_dispatch_noreply;
          Alcotest.test_case "delete" `Quick test_dispatch_delete;
          Alcotest.test_case "counters" `Quick test_dispatch_counters;
          Alcotest.test_case "gets/cas flow" `Quick test_dispatch_gets_cas_flow;
          Alcotest.test_case "admin" `Quick test_dispatch_admin;
        ] );
      ("socket integration (event loop)", socket_cases ev_plane);
      ("socket integration (lock)", socket_cases lock_plane);
      ("hardening (event loop)", hardening_cases ev_plane);
      ("hardening (lock)", hardening_cases lock_plane);
      ( "event-loop sharding",
        [
          Alcotest.test_case "multi-worker response routing" `Quick
            test_multiworker_routing;
          Alcotest.test_case "fd ceiling" `Quick (test_fd_ceiling ev_plane);
          Alcotest.test_case "accept backs off when out of descriptors" `Quick
            (test_accept_fd_exhausted ev_plane);
        ] );
    ]
