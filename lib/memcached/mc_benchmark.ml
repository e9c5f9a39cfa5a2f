type mode = Get_only | Set_only | Mixed of float

type config = {
  workers : int;
  duration : float;
  keyspace : int;
  value_size : int;
  mode : mode;
  seed : int;
  dist : Rp_workload.Keygen.dist;
}

let default_config =
  {
    workers = 1;
    duration = 1.0;
    keyspace = 10_000;
    value_size = 100;
    mode = Get_only;
    seed = 42;
    dist = Rp_workload.Keygen.Uniform;
  }

type result = {
  requests : int;
  elapsed : float;
  requests_per_second : float;
  hits : int;
  misses : int;
}

let value_for ~size key_index =
  let tag = Printf.sprintf "v%08d:" key_index in
  let pad = max 0 (size - String.length tag) in
  tag ^ String.make pad 'x'

let prefill store ~keyspace ~value_size =
  for i = 0 to keyspace - 1 do
    let key = Rp_workload.Keygen.string_key i in
    ignore
      (Store.set store ~key ~flags:0 ~exptime:0 ~data:(value_for ~size:value_size i))
  done

(* One worker = one simulated mc-benchmark process: client-side encoding +
   parsing and server-side parsing + dispatch, all on this domain. *)
let worker store config index ~stop ~hits ~misses =
  let keygen =
    Rp_workload.Keygen.create ~dist:config.dist ~keyspace:config.keyspace
      ~seed:config.seed ~worker:index ()
  in
  let prng = Rp_workload.Keygen.prng keygen in
  let parser = Protocol.Parser.create () in
  let response_parser = Protocol.Response_parser.create () in
  let my_hits = ref 0 and my_misses = ref 0 in
  let one_request () =
    let key_index = Rp_workload.Keygen.next_key keygen in
    let key = Rp_workload.Keygen.string_key key_index in
    let is_set =
      match config.mode with
      | Get_only -> false
      | Set_only -> true
      | Mixed fraction -> Rp_workload.Prng.float prng < fraction
    in
    let request =
      if is_set then
        Protocol.Set
          {
            key;
            flags = 0;
            exptime = 0;
            noreply = false;
            data = value_for ~size:config.value_size key_index;
          }
      else Protocol.Get [ key ]
    in
    (* client -> wire *)
    Protocol.Parser.feed parser (Protocol.encode_request request);
    (* wire -> server -> wire *)
    (match Protocol.Parser.next parser with
    | Some (Ok parsed) -> (
        match Server.handle store parsed with
        | Some response ->
            Protocol.Response_parser.feed response_parser
              (Protocol.encode_response response)
        | None -> ())
    | Some (Error msg) -> failwith ("mc_benchmark: request parse error: " ^ msg)
    | None -> failwith "mc_benchmark: incomplete request");
    (* wire -> client *)
    match Protocol.Response_parser.next response_parser with
    | Some (Ok (Protocol.Values [])) -> incr my_misses
    | Some (Ok (Protocol.Values _)) -> incr my_hits
    | Some (Ok _) -> ()
    | Some (Error msg) -> failwith ("mc_benchmark: response parse error: " ^ msg)
    | None -> failwith "mc_benchmark: incomplete response"
  in
  let ops = Rp_harness.Runner.loop_until_stop ~stop ~f:one_request in
  ignore (Atomic.fetch_and_add hits !my_hits);
  ignore (Atomic.fetch_and_add misses !my_misses);
  ops

let run ~store config =
  let hits = Atomic.make 0 and misses = Atomic.make 0 in
  let workers =
    Array.init config.workers (fun i ~stop ->
        worker store config i ~stop ~hits ~misses)
  in
  let outcome = Rp_harness.Runner.run ~duration:config.duration ~workers () in
  {
    requests = Rp_harness.Runner.total_ops outcome;
    elapsed = outcome.elapsed;
    requests_per_second = Rp_harness.Runner.throughput outcome;
    hits = Atomic.get hits;
    misses = Atomic.get misses;
  }

let run_backend ~backend config =
  let store = Store.create ~backend ~initial_size:16_384 () in
  prefill store ~keyspace:config.keyspace ~value_size:config.value_size;
  run ~store config

(* ---------------------------------------------------------------------- *)
(* Pipelined socket load (mc-benchmark -P): real sockets, real kernel.    *)
(* ---------------------------------------------------------------------- *)

type socket_config = {
  connections : int;
  pipeline : int;
  sduration : float;
  skeyspace : int;
  svalue_size : int;
  sseed : int;
  sdist : Rp_workload.Keygen.dist;
}

let connect addr =
  let domain, sockaddr = Server.sockaddr_of addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.connect fd sockaddr;
  (match addr with
  | Server.Unix_socket _ -> ()
  | Server.Tcp _ | Server.Inet _ -> Io.set_tcp_nodelay fd);
  fd

(* Read until [n] responses came back, handing each to [consume]. *)
let await_responses rp fd rbuf n consume =
  let remaining = ref n in
  while !remaining > 0 do
    match Protocol.Response_parser.next rp with
    | Some (Ok response) ->
        consume response;
        decr remaining
    | Some (Error msg) ->
        failwith ("mc_benchmark: socket response parse error: " ^ msg)
    | None ->
        let got = Unix.read fd rbuf 0 (Bytes.length rbuf) in
        if got = 0 then failwith "mc_benchmark: server closed the connection";
        Protocol.Response_parser.feed rp (Bytes.sub_string rbuf 0 got)
  done

(* Prefill over the wire (batches of pipelined SETs), never by touching the
   store directly — a QSBR-mode store must only ever be driven from the
   server's worker domains. *)
let socket_prefill addr ~keyspace ~value_size =
  let fd = connect addr in
  let rp = Protocol.Response_parser.create () in
  let rbuf = Bytes.create 65536 in
  let batch = Buffer.create 8192 in
  let i = ref 0 in
  (try
     while !i < keyspace do
       let n = min 128 (keyspace - !i) in
       Buffer.clear batch;
       for j = !i to !i + n - 1 do
         Buffer.add_string batch
           (Protocol.encode_request
              (Protocol.Set
                 {
                   key = Rp_workload.Keygen.string_key j;
                   flags = 0;
                   exptime = 0;
                   noreply = false;
                   data = value_for ~size:value_size j;
                 }))
       done;
       Io.write_all fd (Buffer.contents batch);
       await_responses rp fd rbuf n (function
         | Protocol.Stored -> ()
         | other ->
             failwith
               ("mc_benchmark: prefill expected STORED, got "
               ^ String.trim (Protocol.encode_response other)));
       i := !i + n
     done
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.close fd

let socket_worker addr config index ~stop ~hits ~misses =
  let fd = connect addr in
  let keygen =
    Rp_workload.Keygen.create ~dist:config.sdist ~keyspace:config.skeyspace
      ~seed:config.sseed ~worker:index ()
  in
  let rp = Protocol.Response_parser.create () in
  let rbuf = Bytes.create 65536 in
  let batch = Buffer.create (config.pipeline * 32) in
  let my_hits = ref 0 and my_misses = ref 0 in
  let one_batch () =
    Buffer.clear batch;
    for _ = 1 to config.pipeline do
      let key =
        Rp_workload.Keygen.string_key (Rp_workload.Keygen.next_key keygen)
      in
      Buffer.add_string batch (Protocol.encode_request (Protocol.Get [ key ]))
    done;
    Io.write_all fd (Buffer.contents batch);
    await_responses rp fd rbuf config.pipeline (function
      | Protocol.Values [] -> incr my_misses
      | Protocol.Values _ -> incr my_hits
      | _ -> ())
  in
  let batches = Rp_harness.Runner.loop_until_stop ~stop ~f:one_batch in
  ignore (Atomic.fetch_and_add hits !my_hits);
  ignore (Atomic.fetch_and_add misses !my_misses);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  batches * config.pipeline

(* ---------------------------------------------------------------------- *)
(* Multi-server load: ring-routed client, one per connection.             *)
(* ---------------------------------------------------------------------- *)

(* Prefill through the ring so every key lands on its owning member. *)
let servers_prefill servers ~keyspace ~value_size =
  let client = Client.of_servers servers in
  Fun.protect
    ~finally:(fun () -> Client.close client)
    (fun () ->
      for i = 0 to keyspace - 1 do
        let key = Rp_workload.Keygen.string_key i in
        ignore
          (Client.set client ~key ~data:(value_for ~size:value_size i) ())
      done)

let servers_worker servers config index ~stop ~hits ~misses =
  let client = Client.of_servers servers in
  let keygen =
    Rp_workload.Keygen.create ~dist:config.sdist ~keyspace:config.skeyspace
      ~seed:config.sseed ~worker:index ()
  in
  let my_hits = ref 0 and my_misses = ref 0 in
  (* [get_many] groups the batch by ring owner: one pipelined GET per
     member per round, which keeps the member fan-out of a real
     consistent-hash deployment while batching like [-P]. *)
  let one_batch () =
    let keys =
      List.init config.pipeline (fun _ ->
          Rp_workload.Keygen.string_key (Rp_workload.Keygen.next_key keygen))
    in
    let got = List.length (Client.get_many client keys) in
    my_hits := !my_hits + got;
    my_misses := !my_misses + (config.pipeline - got)
  in
  let batches = Rp_harness.Runner.loop_until_stop ~stop ~f:one_batch in
  ignore (Atomic.fetch_and_add hits !my_hits);
  ignore (Atomic.fetch_and_add misses !my_misses);
  Client.close client;
  batches * config.pipeline

let run_servers servers config =
  if servers = [] then invalid_arg "Mc_benchmark.run_servers: no servers";
  if config.connections < 1 then
    invalid_arg "Mc_benchmark.run_servers: connections < 1";
  if config.pipeline < 1 then
    invalid_arg "Mc_benchmark.run_servers: pipeline < 1";
  Io.ignore_sigpipe ();
  servers_prefill servers ~keyspace:config.skeyspace
    ~value_size:config.svalue_size;
  let hits = Atomic.make 0 and misses = Atomic.make 0 in
  let workers =
    Array.init config.connections (fun i ~stop ->
        servers_worker servers config i ~stop ~hits ~misses)
  in
  let outcome = Rp_harness.Runner.run ~duration:config.sduration ~workers () in
  {
    requests = Rp_harness.Runner.total_ops outcome;
    elapsed = outcome.elapsed;
    requests_per_second = Rp_harness.Runner.throughput outcome;
    hits = Atomic.get hits;
    misses = Atomic.get misses;
  }

let run_socket addr config =
  if config.connections < 1 then
    invalid_arg "Mc_benchmark.run_socket: connections < 1";
  if config.pipeline < 1 then invalid_arg "Mc_benchmark.run_socket: pipeline < 1";
  Io.ignore_sigpipe ();
  let hits = Atomic.make 0 and misses = Atomic.make 0 in
  let workers =
    Array.init config.connections (fun i ~stop ->
        socket_worker addr config i ~stop ~hits ~misses)
  in
  let outcome = Rp_harness.Runner.run ~duration:config.sduration ~workers () in
  {
    requests = Rp_harness.Runner.total_ops outcome;
    elapsed = outcome.elapsed;
    requests_per_second = Rp_harness.Runner.throughput outcome;
    hits = Atomic.get hits;
    misses = Atomic.get misses;
  }
