(* Stand-alone mini-memcached server. *)

open Cmdliner

let backend_arg =
  let doc = "Table backend: 'rp' (relativistic GET fast path) or 'lock' (global lock)." in
  Arg.(
    value
    & opt (enum [ ("rp", Memcached.Store.Rp); ("lock", Memcached.Store.Lock) ])
        Memcached.Store.Rp
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let port_arg =
  let doc = "TCP port to listen on (loopback). Mutually exclusive with --socket." in
  Arg.(value & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let socket_arg =
  let doc = "Unix-domain socket path to listen on." in
  Arg.(value & opt string "/tmp/rp-memcached.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let max_bytes_arg =
  let doc = "Eviction budget in megabytes." in
  Arg.(value & opt int 64 & info [ "m"; "memory" ] ~docv:"MB" ~doc)

let metrics_port_arg =
  let doc =
    "Serve Prometheus text exposition on 127.0.0.1:$(docv) (0 = OS-assigned)."
  in
  Arg.(
    value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT" ~doc)

let event_loop_arg =
  let doc =
    "Accepted and ignored: the sharded event loop is the only serving \
     plane. Kept because existing command lines pass it, among them the \
     perfbench driver (perfbench/run.py)."
  in
  Arg.(value & flag & info [ "event-loop" ] ~doc)

let workers_arg =
  let doc = "Event-loop worker domains (0 = one per recommended domain)." in
  Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N" ~doc)

let data_dir_arg =
  let doc =
    "Directory for crash-safe persistence (snapshots + append-only op \
     log). On startup the newest valid snapshot is loaded and the op-log \
     tail replayed (warm restart); omitted, the store is purely in-memory."
  in
  Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)

let snapshot_interval_arg =
  let doc =
    "Seconds between background snapshots of the live table (0 disables \
     periodic snapshots; the op log still makes every write durable)."
  in
  Arg.(
    value & opt float 60. & info [ "snapshot-interval" ] ~docv:"SECONDS" ~doc)

let aof_arg =
  let doc =
    "Record every mutation in the append-only op log (requires \
     --data-dir). With --aof=false only snapshots persist, so writes \
     since the last snapshot are lost on a crash."
  in
  Arg.(value & opt bool true & info [ "aof" ] ~docv:"BOOL" ~doc)

let fsync_policy_arg =
  let doc =
    "Op-log durability: 'always' (fsync inside every ack), 'every:<ms>' \
     (group commit), or 'never' (leave it to the kernel)."
  in
  let parse s =
    Result.map_error
      (fun e -> `Msg e)
      (Rp_persist.Oplog.policy_of_string s)
  in
  let print fmt p = Format.pp_print_string fmt (Rp_persist.Oplog.policy_name p) in
  Arg.(
    value
    & opt (conv (parse, print)) Rp_persist.Oplog.Always
    & info [ "fsync-policy" ] ~docv:"POLICY" ~doc)

let guard_arg =
  let doc =
    "Run the overload guard: a background sweeper samples pressure \
     (memory, connections, disk, RCU stalls) and walks the \
     Healthy/Throttle/Shed/Emergency ladder — shedding mutations, \
     widening trace sampling, pausing snapshots, and refusing new \
     connections as pressure demands."
  in
  Arg.(value & opt bool true & info [ "guard" ] ~docv:"BOOL" ~doc)

let shed_watermarks_arg =
  let doc =
    "Shed-rung watermarks as HIGH:LOW occupancy fractions with \
     hysteresis (enter Shed at HIGH, leave below LOW). Throttle and \
     Emergency rungs are derived around them."
  in
  let parse s =
    Result.map_error (fun e -> `Msg e) (Rp_guard.watermarks_of_string s)
  in
  let print fmt (w : Rp_guard.watermarks) =
    Format.fprintf fmt "%.2f:%.2f" w.shed_up w.shed_down
  in
  Arg.(
    value
    & opt (conv (parse, print)) Rp_guard.default_watermarks
    & info [ "shed-watermarks" ] ~docv:"HIGH:LOW" ~doc)

let max_inflight_arg =
  let doc =
    "Admission cap below --max-connections: past $(docv) live \
     connections, new ones are refused with 'SERVER_ERROR overloaded' \
     (0 disables)."
  in
  Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N" ~doc)

let conn_write_cap_arg =
  let doc =
    "Event-loop plane: per-connection pending-write cap in bytes — a \
     client that stops draining its socket has its pipeline parked once \
     this many response bytes are queued (0 = unlimited)."
  in
  Arg.(value & opt int 1_048_576 & info [ "conn-write-cap" ] ~docv:"BYTES" ~doc)

let oplog_max_mb_arg =
  let doc =
    "Rotate the op log once the live segment exceeds $(docv) MB; \
     obsolete segments are archived as *.old-N and pruned (0 = rotate \
     only at snapshots)."
  in
  Arg.(value & opt int 0 & info [ "oplog-max-mb" ] ~docv:"MB" ~doc)

let trace_sample_arg =
  let doc =
    "Head-sample 1 request in $(docv) for detailed flight-recorder spans \
     (1 = trace every request; request-level spans and the slow-request \
     tail trigger stay on regardless)."
  in
  Arg.(value & opt int 1024 & info [ "trace-sample" ] ~docv:"N" ~doc)

let trace_slow_ms_arg =
  let doc =
    "Tail-trigger latency budget: a request slower than $(docv) ms is \
     force-retained in the slow-request log with its span breakdown."
  in
  Arg.(value & opt float 100. & info [ "trace-slow-ms" ] ~docv:"MS" ~doc)

let heat_topk_arg =
  let doc =
    "Track the $(docv) heaviest hitters per sketch (hits, misses, \
     mutations) in the workload-insight plane, exposed via 'stats heat', \
     the heat_* Prometheus families, /heat, and 'heat dump' (0 = off; \
     an unconfigured plane costs one branch on the hot path)."
  in
  Arg.(value & opt int 0 & info [ "heat-topk" ] ~docv:"K" ~doc)

let heat_sample_arg =
  let doc =
    "Head-sampling period of the heat plane's note path (power of two): \
     one operation in $(docv) pays for sketch and histogram work, and \
     exposed counts are scaled back to stream units. 1 records every \
     operation."
  in
  Arg.(value & opt int 16 & info [ "heat-sample" ] ~docv:"N" ~doc)

let trace_buffer_arg =
  let doc =
    "Flight-recorder ring size per worker domain, in span records (rounded \
     up to a power of two; the default keeps the ring L2-resident)."
  in
  Arg.(value & opt int 1024 & info [ "trace-buffer" ] ~docv:"RECORDS" ~doc)

let tier_dir_arg =
  let doc =
    "Directory for the cold tier's value segments. With a tier attached, \
     the eviction sweep demotes victims to disk instead of dropping them \
     and a GET that hits a demoted key promotes it back — datasets \
     larger than --memory keep every acked SET readable."
  in
  Arg.(value & opt (some string) None & info [ "tier-dir" ] ~docv:"DIR" ~doc)

let tier_max_mb_arg =
  let doc =
    "Cold-tier disk budget in megabytes; a full tier falls back to plain \
     eviction and feeds the overload guard's disk pressure."
  in
  Arg.(value & opt int 256 & info [ "tier-max-mb" ] ~docv:"MB" ~doc)

let tier_mode_arg =
  let doc =
    "Tier mode: 'demote' (evictions spill to --tier-dir) or 'off' \
     (ignore --tier-dir)."
  in
  Arg.(
    value
    & opt (enum [ ("demote", true); ("off", false) ]) true
    & info [ "tier" ] ~docv:"MODE" ~doc)

let repl_port_arg =
  let doc =
    "Lead a replication group: listen for followers on 127.0.0.1:$(docv) \
     (0 = OS-assigned) and stream every op-log record to them. Requires \
     --data-dir with the op log enabled."
  in
  Arg.(value & opt (some int) None & info [ "repl-port" ] ~docv:"PORT" ~doc)

let replica_of_arg =
  let doc =
    "Follow the leader whose replication listener is at $(docv) \
     (host:port): apply its op-log stream, refuse client mutations \
     (read-only) until 'cluster promote'."
  in
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some port when host <> "" -> Ok (host, port)
        | _ -> Error (`Msg ("bad host:port: " ^ s)))
    | None -> Error (`Msg ("bad host:port: " ^ s))
  in
  let print fmt (h, p) = Format.fprintf fmt "%s:%d" h p in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "replica-of" ] ~docv:"HOST:PORT" ~doc)

let run backend port socket max_mb metrics_port (_ : bool) workers data_dir
    snapshot_interval aof fsync_policy guard_enabled shed_watermarks
    max_inflight conn_write_cap oplog_max_mb trace_sample trace_slow_ms
    trace_buffer heat_topk heat_sample tier_dir tier_max_mb tier_demote
    repl_port replica_of =
  Rp_trace.configure ~sample:trace_sample ~slow_ms:trace_slow_ms
    ~buffer:trace_buffer ();
  let rcu_mode =
    (* The event loop's worker domains follow QSBR discipline, unlocking
       the zero-cost GET read sections. *)
    match backend with
    | Memcached.Store.Rp -> Memcached.Store.Qsbr
    | Memcached.Store.Lock -> Memcached.Store.Memb
  in
  let store =
    Memcached.Store.create ~backend ~rcu_mode ~max_bytes:(max_mb * 1024 * 1024)
      ~heat_topk ~heat_sample ()
  in
  (* The guard attaches before persistence so the post-recovery eviction
     sweep and every later transition are observable from the start. *)
  let guard =
    if guard_enabled then
      Some (Memcached.Guard.install ~watermarks:shed_watermarks store)
    else None
  in
  (* Validate every directory flag up front: a typo'd or read-only path
     should be one clear startup error, not a crash in the first log
     append or demotion. *)
  let check_dir flag dir =
    match Memcached.Dircheck.validate ~flag dir with
    | Ok () -> ()
    | Error m ->
        prerr_endline m;
        exit 2
  in
  Option.iter (check_dir "--data-dir") data_dir;
  let tier_dir = if tier_demote then tier_dir else None in
  Option.iter (check_dir "--tier-dir") tier_dir;
  (* The tier attaches before persistence (two-phase): its demote hooks
     must be live for the post-recovery eviction sweep, but its segment
     live-maps can only be rebuilt once recovery has settled the table. *)
  let tier =
    Option.map
      (fun dir ->
        match Memcached.Tier.attach ~dir ~max_mb:tier_max_mb store with
        | Ok t ->
            Printf.printf "cold tier in %s: %d MB budget\n%!" dir tier_max_mb;
            t
        | Error m ->
            prerr_endline ("--tier-dir " ^ dir ^ ": " ^ m);
            exit 2)
      tier_dir
  in
  (* Recovery must finish before the listeners open: replay goes through
     the normal update path and must not interleave with client writes. *)
  let persist =
    Option.map
      (fun dir ->
        let snapshot_interval =
          if snapshot_interval > 0. then Some snapshot_interval else None
        in
        let p =
          Memcached.Persist.attach ?snapshot_interval ~aof ~fsync:fsync_policy
            ~oplog_max_mb ~dir store
        in
        let r = Memcached.Persist.recovery p in
        Printf.printf
          "persistence in %s: recovered %d snapshot + %d log records%s\n%!"
          dir r.Memcached.Persist.snapshot_records
          r.Memcached.Persist.log_records
          (if r.Memcached.Persist.log_truncated_bytes > 0 then
             Printf.sprintf " (torn tail: %d bytes truncated)"
               r.Memcached.Persist.log_truncated_bytes
           else "");
        if r.Memcached.Persist.post_recovery_evictions > 0 then
          Printf.printf
            "post-recovery sweep: evicted %d records over the memory budget\n%!"
            r.Memcached.Persist.post_recovery_evictions;
        (* With size rotation on, sustained log growth past a few
           segments' worth means compaction is losing the race — let it
           feed disk pressure. Without rotation, growth is unbounded by
           design, so only append failures count. *)
        Option.iter
          (fun g ->
            Memcached.Guard.watch_persist g
              ~log_budget_mb:(if oplog_max_mb > 0 then 4 * oplog_max_mb else 0)
              p)
          guard;
        p)
      data_dir
  in
  Option.iter
    (fun t ->
      let dropped = Memcached.Tier.finish_recovery t in
      if dropped > 0 then
        Printf.printf "tier recovery: dropped %d fully-dead segment(s)\n%!"
          dropped)
    tier;
  (* Cluster roles attach between recovery and the listeners: a leader's
     tap must be live before the first client write is logged, and a
     follower must be read-only before a client can reach it. *)
  (match (repl_port, replica_of) with
  | Some _, Some _ ->
      prerr_endline "cannot be both --repl-port leader and --replica-of follower";
      exit 2
  | _ -> ());
  let cluster =
    match repl_port with
    | Some rp -> (
        match persist with
        | Some p when aof ->
            let c =
              Memcached.Cluster.lead ~store ~persist:p
                (Unix.ADDR_INET (Unix.inet_addr_loopback, rp))
            in
            Printf.printf "replication listener on 127.0.0.1:%d\n%!"
              (Memcached.Cluster.repl_port c);
            Some c
        | _ ->
            prerr_endline "--repl-port requires --data-dir with the op log on";
            exit 2)
    | None -> (
        match replica_of with
        | Some (host, lport) ->
            let _, leader =
              Memcached.Server.sockaddr_of (Memcached.Server.Inet (host, lport))
            in
            let c = Memcached.Cluster.follow ~store ~leader () in
            Printf.printf "following %s:%d (read-only until promoted)\n%!" host
              lport;
            Some c
        | None -> None)
  in
  let address =
    match port with
    | Some p -> Memcached.Server.Tcp p
    | None -> Memcached.Server.Unix_socket socket
  in
  let config =
    {
      Memcached.Server.default_config with
      workers;
      max_inflight;
      conn_write_cap;
    }
  in
  let server = Memcached.Server.start ~store ~config address in
  Option.iter
    (fun g ->
      Memcached.Guard.watch_server g server;
      Rp_guard.start g;
      Printf.printf "overload guard on: shed at %.2f, recover below %.2f\n%!"
        shed_watermarks.Rp_guard.shed_up shed_watermarks.Rp_guard.shed_down)
    guard;
  (match Memcached.Server.address server with
  | Memcached.Server.Tcp p -> Printf.printf "listening on 127.0.0.1:%d\n%!" p
  | Memcached.Server.Inet (h, p) -> Printf.printf "listening on %s:%d\n%!" h p
  | Memcached.Server.Unix_socket path -> Printf.printf "listening on %s\n%!" path);
  Printf.printf "event-loop plane: %d worker domain(s), rcu %s\n%!"
    (Memcached.Server.workers server)
    (match rcu_mode with
    | Memcached.Store.Qsbr -> "qsbr"
    | Memcached.Store.Memb -> "memb");
  let metrics =
    Option.map
      (fun p ->
        let m =
          Memcached.Metrics_http.start
            ~registry:(Memcached.Store.registry store)
            ~heat:(fun n -> Memcached.Store.heat_json ?n store)
            p
        in
        Printf.printf "metrics on http://127.0.0.1:%d/metrics\n%!"
          (Memcached.Metrics_http.port m);
        m)
      metrics_port
  in
  let stop = ref false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  while not !stop do
    Unix.sleepf 0.2
  done;
  print_endline "shutting down";
  Option.iter Rp_guard.stop guard;
  Option.iter Memcached.Metrics_http.stop metrics;
  Option.iter Memcached.Cluster.stop cluster;
  Memcached.Server.stop server;
  Option.iter Memcached.Tier.stop tier;
  Option.iter Memcached.Persist.stop persist

let cmd =
  let doc = "mini-memcached with a relativistic hash table" in
  Cmd.v (Cmd.info "memcached_server" ~doc)
    Term.(
      const run $ backend_arg $ port_arg $ socket_arg $ max_bytes_arg
      $ metrics_port_arg $ event_loop_arg $ workers_arg $ data_dir_arg
      $ snapshot_interval_arg $ aof_arg $ fsync_policy_arg $ guard_arg
      $ shed_watermarks_arg $ max_inflight_arg $ conn_write_cap_arg
      $ oplog_max_mb_arg $ trace_sample_arg $ trace_slow_ms_arg
      $ trace_buffer_arg $ heat_topk_arg $ heat_sample_arg $ tier_dir_arg $ tier_max_mb_arg
      $ tier_mode_arg $ repl_port_arg $ replica_of_arg)

let () = exit (Cmd.eval cmd)
