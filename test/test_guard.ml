(* The overload-resilience plane: the Rp_guard ladder itself (hysteresis,
   latches, instruments), the dispatch-level mutation shedding on both
   protocols, the persistence actuators (pause + fsync relax), adaptive
   trace sampling, op-log size rotation with bounded archives, the
   post-recovery eviction sweep, and connection admission control. *)

open Memcached

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rp-guard-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    dir

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let state = Alcotest.testable (Fmt.of_to_string Rp_guard.state_name) ( = )

(* A guard driven entirely by hand: one mutable pressure source, manual
   sweeps, no background thread. *)
let manual_guard () =
  let g = Rp_guard.create ~interval:10.0 () in
  let p = ref 0.0 in
  Rp_guard.add_source g ~name:"manual" (fun () -> !p);
  (g, p)

(* --- watermarks --- *)

let test_watermarks_parse () =
  (match Rp_guard.watermarks_of_string "0.85:0.70" with
  | Ok w ->
      Alcotest.(check (float 1e-9)) "shed up" 0.85 w.Rp_guard.shed_up;
      Alcotest.(check (float 1e-9)) "shed down" 0.70 w.Rp_guard.shed_down;
      Alcotest.(check (float 1e-9)) "throttle up" 0.70 w.Rp_guard.throttle_up;
      Alcotest.(check (float 1e-9)) "emergency up" 0.95 w.Rp_guard.emergency_up
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Emergency clamps at 0.99 when the shed rung sits high. *)
  (match Rp_guard.watermarks_of_string "0.95:0.90" with
  | Ok w ->
      Alcotest.(check (float 1e-9)) "clamped" 0.99 w.Rp_guard.emergency_up
  | Error e -> Alcotest.failf "parse failed: %s" e);
  let bad s =
    match Rp_guard.watermarks_of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "0.7:0.8" (* LOW >= HIGH *);
  bad "1.5:0.5" (* HIGH > 1 *);
  bad "0.8:0" (* LOW = 0 *);
  bad "0.8" (* missing LOW *);
  bad "a:b"

(* --- the ladder --- *)

let test_ladder_up_jumps () =
  let g, p = manual_guard () in
  Alcotest.check state "starts healthy" Rp_guard.Healthy (Rp_guard.state g);
  p := 0.72;
  Rp_guard.sweep g;
  Alcotest.check state "throttle" Rp_guard.Throttle (Rp_guard.state g);
  p := 0.90;
  Rp_guard.sweep g;
  Alcotest.check state "shed" Rp_guard.Shed (Rp_guard.state g);
  p := 0.96;
  Rp_guard.sweep g;
  Alcotest.check state "emergency" Rp_guard.Emergency (Rp_guard.state g);
  Alcotest.(check int) "three transitions" 3 (Rp_guard.transitions g);
  (* Upward moves skip rungs: a fresh guard at full pressure jumps
     straight to Emergency. *)
  let g2, p2 = manual_guard () in
  p2 := 0.96;
  Rp_guard.sweep g2;
  Alcotest.check state "direct jump" Rp_guard.Emergency (Rp_guard.state g2)

let test_ladder_hysteresis () =
  let g, p = manual_guard () in
  p := 0.72;
  Rp_guard.sweep g;
  Alcotest.check state "throttle" Rp_guard.Throttle (Rp_guard.state g);
  (* Inside the band (down 0.55 <= p < up 0.70): hold the rung. *)
  p := 0.60;
  Rp_guard.sweep g;
  Alcotest.check state "held" Rp_guard.Throttle (Rp_guard.state g);
  p := 0.50;
  Rp_guard.sweep g;
  Alcotest.check state "released" Rp_guard.Healthy (Rp_guard.state g);
  (* From Shed, a partial drop resolves to the rung the pressure still
     demands, not all the way down. *)
  p := 0.90;
  Rp_guard.sweep g;
  Alcotest.check state "shed again" Rp_guard.Shed (Rp_guard.state g);
  p := 0.65;
  Rp_guard.sweep g;
  Alcotest.check state "partial drop" Rp_guard.Throttle (Rp_guard.state g);
  (* A vanished overload resolves to Healthy in a single sweep. *)
  p := 0.96;
  Rp_guard.sweep g;
  p := 0.0;
  Rp_guard.sweep g;
  Alcotest.check state "single-sweep recovery" Rp_guard.Healthy
    (Rp_guard.state g);
  Alcotest.check state "peak sticks" Rp_guard.Emergency
    (Rp_guard.peak_state g)

let test_ladder_latch_and_gates () =
  let g, p = manual_guard () in
  Alcotest.(check bool) "admits" true (Rp_guard.admit_mutation g);
  Alcotest.(check bool) "accepts" true (Rp_guard.accepting g);
  p := 0.72;
  Rp_guard.sweep g;
  Alcotest.(check bool) "throttle admits" true (Rp_guard.admit_mutation g);
  p := 0.90;
  Rp_guard.sweep g;
  Alcotest.(check bool) "shed refuses mutations" false
    (Rp_guard.admit_mutation g);
  Alcotest.(check bool) "shed still accepts conns" true (Rp_guard.accepting g);
  (* The hard-failure latch (2.0) forces Emergency from anywhere. *)
  p := 2.0;
  Rp_guard.sweep g;
  Alcotest.check state "latched" Rp_guard.Emergency (Rp_guard.state g);
  Alcotest.(check bool) "emergency stops accepting" false
    (Rp_guard.accepting g)

let test_source_failure_keeps_last () =
  let g = Rp_guard.create ~interval:10.0 () in
  let ok = ref true in
  Rp_guard.add_source g ~name:"flaky" (fun () ->
      if !ok then 0.9 else failwith "sampler died");
  Rp_guard.sweep g;
  Alcotest.check state "shed" Rp_guard.Shed (Rp_guard.state g);
  ok := false;
  Rp_guard.sweep g;
  (* The dead sampler's last reading holds; the guard does not treat a
     broken sensor as a recovery. *)
  Alcotest.check state "still shed" Rp_guard.Shed (Rp_guard.state g);
  Alcotest.(check (float 1e-9)) "pressure held" 0.9 (Rp_guard.pressure g)

let test_listeners_and_instruments () =
  let g, p = manual_guard () in
  let seen = ref [] in
  Rp_guard.on_transition g (fun o n -> seen := (o, n) :: !seen);
  (* A failing actuator must not take down the sweep or later listeners. *)
  Rp_guard.on_transition g (fun _ _ -> failwith "actuator died");
  let reg = Rp_obs.Registry.create () in
  Rp_guard.register_instruments g reg;
  p := 0.90;
  Rp_guard.sweep g;
  p := 0.0;
  Rp_guard.sweep g;
  Alcotest.(check (list (pair state state)))
    "transitions observed"
    [ (Rp_guard.Healthy, Rp_guard.Shed); (Rp_guard.Shed, Rp_guard.Healthy) ]
    (List.rev !seen);
  Rp_guard.note_shed g;
  Rp_guard.note_shed g;
  Alcotest.(check int) "shed counter" 2 (Rp_guard.shed_total g);
  let metric name =
    match Rp_obs.Registry.value reg name with
    | Some v -> v
    | None -> Alcotest.failf "missing instrument %s" name
  in
  Alcotest.(check (float 1e-9)) "guard_state gauge" 0.0 (metric "guard_state");
  Alcotest.(check (float 1e-9)) "peak gauge" 2.0 (metric "guard_state_peak");
  Alcotest.(check (float 1e-9)) "shed total" 2.0 (metric "guard_shed_total");
  Alcotest.(check (float 1e-9)) "transitions" 2.0
    (metric "guard_transitions_total");
  Alcotest.(check bool) "per-source gauge" true
    (Rp_obs.Registry.value reg "guard_pressure_manual" <> None);
  let kv = Rp_guard.stats_kv g in
  Alcotest.(check (option string)) "state name" (Some "healthy")
    (List.assoc_opt "guard_state_name" kv);
  Alcotest.(check (option string)) "peak name" (Some "shed")
    (List.assoc_opt "guard_state_peak" kv)

(* --- dispatch shedding, both protocols --- *)

(* A store whose guard is pinned at Shed by a constant source. *)
let shedding_store () =
  let store = Store.create ~backend:Store.Rp () in
  ignore (Store.set store ~key:"k" ~flags:0 ~exptime:0 ~data:"v");
  let g = Rp_guard.create ~interval:10.0 () in
  Rp_guard.add_source g ~name:"test" (fun () -> 0.9);
  Rp_guard.sweep g;
  Store.set_guard store (Some g);
  (store, g)

let storage key data : Protocol.storage =
  { key; flags = 0; exptime = 0; noreply = false; data }

let test_text_shed () =
  let store, g = shedding_store () in
  (match Server.handle store (Protocol.Set (storage "x" "y")) with
  | Some (Protocol.Server_error "overloaded") -> ()
  | _ -> Alcotest.fail "mutation not shed");
  (match Server.handle store (Protocol.Delete { key = "k"; noreply = false }) with
  | Some (Protocol.Server_error "overloaded") -> ()
  | _ -> Alcotest.fail "delete not shed");
  (* noreply mutations shed silently: no response, still counted. *)
  (match
     Server.handle store
       (Protocol.Set { (storage "x" "y") with noreply = true })
   with
  | None -> ()
  | Some _ -> Alcotest.fail "noreply shed must stay silent");
  Alcotest.(check int) "sheds counted" 3 (Rp_guard.shed_total g);
  (* Reads are never shed, and the shed mutation really did not land. *)
  (match Server.handle store (Protocol.Get [ "k" ]) with
  | Some (Protocol.Values [ v ]) ->
      Alcotest.(check string) "read intact" "v" v.Protocol.vdata
  | _ -> Alcotest.fail "GET must keep working under shed");
  (match Server.handle store (Protocol.Get [ "x" ]) with
  | Some (Protocol.Values []) -> ()
  | _ -> Alcotest.fail "shed set must not have landed");
  (* stats guard is reachable while shedding. *)
  match Server.handle store (Protocol.Stats (Some "guard")) with
  | Some (Protocol.Stats_reply kv) ->
      Alcotest.(check (option string)) "live state" (Some "shed")
        (List.assoc_opt "guard_state_name" kv);
      Alcotest.(check (option string)) "enabled" (Some "1")
        (List.assoc_opt "guard_enabled" kv)
  | _ -> Alcotest.fail "stats guard failed"

let test_binary_shed () =
  Alcotest.(check int) "busy wire code" 0x0085
    (Binary_protocol.status_to_int Binary_protocol.Busy);
  Alcotest.(check bool) "busy roundtrip" true
    (Binary_protocol.status_of_int 0x0085 = Binary_protocol.Busy);
  let store, g = shedding_store () in
  let req opcode key value extras =
    { Binary_protocol.opcode; key; value; extras; opaque = 7; cas = 0 }
  in
  (match
     Binary_server.handle store
       (req Binary_protocol.Set "x" "y"
          (Binary_protocol.set_extras ~flags:0 ~exptime:0))
   with
  | [ r ] ->
      Alcotest.(check bool) "busy status" true
        (r.Binary_protocol.status = Binary_protocol.Busy);
      Alcotest.(check int) "opaque echoed" 7 r.Binary_protocol.r_opaque
  | _ -> Alcotest.fail "binary set must shed with one Busy response");
  Alcotest.(check int) "shed counted" 1 (Rp_guard.shed_total g);
  match Binary_server.handle store (req Binary_protocol.Get "k" "" "") with
  | [ r ] ->
      Alcotest.(check bool) "get ok" true
        (r.Binary_protocol.status = Binary_protocol.Ok_status);
      Alcotest.(check string) "value" "v" r.Binary_protocol.r_value
  | _ -> Alcotest.fail "binary GET must keep working under shed"

let test_guard_stats_disabled () =
  let store = Store.create ~backend:Store.Rp () in
  Alcotest.(check (option string)) "disabled" (Some "0")
    (List.assoc_opt "guard_enabled" (Option.get (Store.stats_section store "guard")))

(* --- post-recovery eviction sweep --- *)

let test_post_recovery_sweep () =
  with_dir (fun dir ->
      let big = Store.create ~backend:Store.Rp ~max_bytes:(8 * 1024 * 1024) () in
      let p1 = Persist.attach ~aof:true ~dir big in
      let data = String.make 1024 'd' in
      for k = 0 to 63 do
        ignore
          (Store.set big ~key:("rk" ^ string_of_int k) ~flags:0 ~exptime:0
             ~data)
      done;
      Persist.stop p1;
      (* Warm restart into a store whose budget cannot hold what the
         directory contains: recovery must replay everything, then sweep
         back under budget before serving. *)
      let budget = 16 * 1024 in
      let small = Store.create ~backend:Store.Rp ~max_bytes:budget () in
      let p2 = Persist.attach ~aof:true ~dir small in
      let r = Persist.recovery p2 in
      Alcotest.(check bool) "replayed records" true (r.Persist.log_records >= 64);
      Alcotest.(check bool) "sweep evicted" true
        (r.Persist.post_recovery_evictions > 0);
      Alcotest.(check bool)
        (Printf.sprintf "under budget (%d <= %d)" (Store.bytes small) budget)
        true
        (Store.bytes small <= budget);
      Alcotest.(check bool) "something survived" true (Store.items small > 0);
      Persist.stop p2)

(* --- op-log size rotation and bounded archives --- *)

let test_oplog_size_rotation () =
  with_dir (fun dir ->
      let l =
        Rp_persist.Oplog.open_ ~max_bytes:512 ~dir ~gen:1
          ~fsync:Rp_persist.Oplog.Never ()
      in
      Alcotest.(check int) "starts at gen 1" 1 (Rp_persist.Oplog.gen l);
      for i = 0 to 31 do
        Rp_persist.Oplog.append l
          (Rp_persist.Record.Set
             {
               op = Rp_persist.Record.Tset;
               key = "k" ^ string_of_int i;
               flags = 0;
               exptime = 0.0;
               cas = i;
               data = String.make 64 'x';
             })
      done;
      Alcotest.(check bool) "rotated by size" true (Rp_persist.Oplog.gen l > 1);
      let segs = Rp_persist.Oplog.segments ~dir in
      Alcotest.(check bool) "multiple segments" true (List.length segs > 1);
      (* Every segment stays replayable: rotation must close each one on
         a frame boundary. *)
      Rp_persist.Oplog.close l;
      let replayed = ref 0 in
      let r =
        Rp_persist.Oplog.replay ~dir ~from_gen:1 ~f:(fun _ -> incr replayed)
      in
      Alcotest.(check int) "no bad records" 0 r.Rp_persist.Oplog.bad_records;
      Alcotest.(check int) "all records survive rotation" 32 !replayed)

let archive_files dir =
  List.filter
    (fun f ->
      match String.rindex_opt f '-' with
      | Some i -> i >= 4 && String.sub f (i - 4) 4 = ".old"
      | None -> false)
    (Array.to_list (Sys.readdir dir))

let test_compaction_archives_bounded () =
  with_dir (fun dir ->
      let store = Store.create ~backend:Store.Rp () in
      let p = Persist.attach ~aof:true ~archive_keep:1 ~dir store in
      for round = 1 to 4 do
        ignore
          (Store.set store
             ~key:("c" ^ string_of_int round)
             ~flags:0 ~exptime:0 ~data:"v");
        match Persist.snapshot_now p with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "snapshot %d failed: %s" round e
      done;
      let archives = archive_files dir in
      Alcotest.(check bool) "compaction archived something" true
        (archives <> []);
      let gens =
        List.sort_uniq compare
          (List.filter_map
             (fun f ->
               match String.rindex_opt f '-' with
               | Some i ->
                   int_of_string_opt
                     (String.sub f (i + 1) (String.length f - i - 1))
               | None -> None)
             archives)
      in
      Alcotest.(check bool)
        (Printf.sprintf "archived generations bounded (%d)" (List.length gens))
        true
        (List.length gens <= 1);
      (* Archives are invisible to recovery: a warm restart sees only the
         live generation. *)
      Persist.stop p;
      let store2 = Store.create ~backend:Store.Rp () in
      let p2 = Persist.attach ~aof:true ~dir store2 in
      Alcotest.(check int) "items recovered" 4 (Store.items store2);
      Persist.stop p2)

(* --- adaptive sampling and the persistence actuators --- *)

let test_adaptive_sampling_and_persist_actuators () =
  with_dir (fun dir ->
      let base = Rp_trace.sample_every () in
      Fun.protect
        ~finally:(fun () -> Rp_trace.configure ~sample:base ())
        (fun () ->
          Rp_trace.configure ~sample:1024 ();
          let store = Store.create ~backend:Store.Rp () in
          let g = Guard.install ~interval:10.0 store in
          let p =
            Persist.attach ~aof:true ~fsync:Rp_persist.Oplog.Always ~dir store
          in
          Guard.watch_persist g ~error_window:10.0 p;
          let pressure = ref 0.0 in
          Rp_guard.add_source g ~name:"test" (fun () -> !pressure);
          (* Throttle: denser tracing, persistence untouched. *)
          pressure := 0.72;
          Rp_guard.sweep g;
          Alcotest.(check int) "incident sampling" 64 (Rp_trace.sample_every ());
          Alcotest.(check bool) "snapshots running" false (Persist.paused p);
          (* Emergency: snapshots pause, fsync relaxes to group commit. *)
          pressure := 2.0;
          Rp_guard.sweep g;
          Alcotest.(check bool) "snapshots paused" true (Persist.paused p);
          (match Persist.fsync_policy p with
          | Some (Rp_persist.Oplog.Every _) -> ()
          | _ -> Alcotest.fail "fsync must relax to group commit");
          (* Recovery: everything reverts. *)
          pressure := 0.0;
          Rp_guard.sweep g;
          Alcotest.check state "healthy again" Rp_guard.Healthy
            (Rp_guard.state g);
          Alcotest.(check int) "base sampling restored" 1024
            (Rp_trace.sample_every ());
          Alcotest.(check bool) "snapshots resumed" false (Persist.paused p);
          (match Persist.fsync_policy p with
          | Some Rp_persist.Oplog.Always -> ()
          | _ -> Alcotest.fail "fsync must revert to Always");
          Persist.stop p))

let test_append_failure_latch () =
  with_dir (fun dir ->
      let store = Store.create ~backend:Store.Rp () in
      let p =
        Persist.attach ~aof:true ~fsync:Rp_persist.Oplog.Always ~dir store
      in
      Alcotest.(check (option Alcotest.reject)) "no error yet" None
        (Option.map ignore (Persist.last_append_error_age p));
      Rp_fault.arm ~seed:1 "persist.log.append"
        ~trigger:(Rp_fault.Probability 1.0) ~action:Rp_fault.Raise;
      (* The mutation still acks — durability degrades, service does not. *)
      Alcotest.(check bool) "set acked" true
        (Store.set store ~key:"a" ~flags:0 ~exptime:0 ~data:"1" = Store.Stored);
      Rp_fault.disarm "persist.log.append";
      Alcotest.(check bool) "failure counted" true (Persist.append_errors p > 0);
      Alcotest.(check bool) "latched" true
        (Persist.last_append_error_age p <> None);
      (* The next successful append clears the latch. *)
      ignore (Store.set store ~key:"b" ~flags:0 ~exptime:0 ~data:"2");
      Alcotest.(check (option Alcotest.reject)) "cleared" None
        (Option.map ignore (Persist.last_append_error_age p));
      Persist.stop p)

(* --- connection admission --- *)

(* The rcu source on a QSBR store: a domain that read, then sleeps online
   until the watchdog has counted a stall, holds up the grace period that
   100 deletes force (their reclamation callbacks flush at 64); the guard
   then reads Shed-level pressure from the stall. *)
let test_rcu_stall_pressure () =
  let store = Store.create ~backend:Store.Rp ~rcu_mode:Store.Qsbr ~initial_size:64 () in
  let g = Guard.install ~interval:10.0 store in
  let reg = Store.registry store in
  let stalls () = Option.value ~default:0.0 (Rp_obs.Registry.value reg "rcu_stalls_total") in
  let keys = List.init 100 string_of_int in
  List.iter (fun key -> ignore (Store.set store ~key ~flags:0 ~exptime:0 ~data:"v")) keys;
  let has_read = Atomic.make false in
  let sleeper =
    Domain.spawn (fun () ->
        ignore (Store.get store "0");
        Atomic.set has_read true;
        let deadline = Unix.gettimeofday () +. 30.0 in
        while stalls () < 1.0 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        Store.reader_offline store)
  in
  while not (Atomic.get has_read) do
    Domain.cpu_relax ()
  done;
  List.iter (fun key -> ignore (Store.delete store key)) keys;
  Domain.join sleeper;
  Alcotest.(check bool) "stall counted" true (stalls () >= 1.0);
  Rp_guard.sweep g;
  Alcotest.(check (option (float 1e-9))) "rcu pressure" (Some 0.90)
    (Rp_obs.Registry.value reg "guard_pressure_rcu")

let test_admission_cap () =
  let store = Store.create ~backend:Store.Rp () in
  ignore (Store.set store ~key:"k" ~flags:0 ~exptime:0 ~data:"v");
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-guard-admit-%d.sock" (Unix.getpid ()))
  in
  let config = { Server.default_config with max_inflight = 1 } in
  let server = Server.start ~store ~config (Server.Unix_socket path) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      Alcotest.(check int) "capacity is the inflight cap" 1
        (Server.capacity server);
      let c1 = Client.connect (Server.Unix_socket path) in
      Alcotest.(check bool) "first conn serves" true
        (Client.get c1 "k" <> None);
      let c2 = Client.connect (Server.Unix_socket path) in
      (match Client.request c2 (Protocol.Get [ "k" ]) with
      | Protocol.Server_error "overloaded" -> ()
      | r ->
          Alcotest.failf "second conn not refused: %s"
            (Protocol.encode_response r)
      | exception _ -> () (* refusal raced the request write: also fine *));
      Client.close c2;
      Client.close c1)

let () =
  Alcotest.run "guard"
    [
      ( "watermarks",
        [ Alcotest.test_case "parse" `Quick test_watermarks_parse ] );
      ( "ladder",
        [
          Alcotest.test_case "up jumps" `Quick test_ladder_up_jumps;
          Alcotest.test_case "hysteresis" `Quick test_ladder_hysteresis;
          Alcotest.test_case "latch + gates" `Quick test_ladder_latch_and_gates;
          Alcotest.test_case "source failure" `Quick
            test_source_failure_keeps_last;
          Alcotest.test_case "listeners + instruments" `Quick
            test_listeners_and_instruments;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "text protocol" `Quick test_text_shed;
          Alcotest.test_case "binary protocol" `Quick test_binary_shed;
          Alcotest.test_case "stats without guard" `Quick
            test_guard_stats_disabled;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "post-recovery sweep" `Quick
            test_post_recovery_sweep;
          Alcotest.test_case "op-log size rotation" `Quick
            test_oplog_size_rotation;
          Alcotest.test_case "bounded archives" `Quick
            test_compaction_archives_bounded;
          Alcotest.test_case "append-failure latch" `Quick
            test_append_failure_latch;
        ] );
      ( "actuators",
        [
          Alcotest.test_case "sampling + persist" `Quick
            test_adaptive_sampling_and_persist_actuators;
          Alcotest.test_case "rcu stall pressure" `Quick test_rcu_stall_pressure;
        ] );
      ( "admission",
        [ Alcotest.test_case "inflight cap" `Quick test_admission_cap ] );
    ]
