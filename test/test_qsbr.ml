(* QSBR-mode RCU: registration, online/offline, quiescent states, grace
   periods, the two modes behind one API, and the table on QSBR. *)

let qsbr () = Rcu.create ~mode:Qsbr ()

let test_register_online () =
  let q = qsbr () in
  Alcotest.(check int) "empty" 0 (Rcu.registered_readers q);
  let th = Rcu.register q in
  Alcotest.(check int) "one" 1 (Rcu.registered_readers q);
  Alcotest.(check bool) "born online" true (Rcu.is_online th);
  Rcu.offline th;
  Alcotest.(check bool) "offline" false (Rcu.is_online th);
  Rcu.online th;
  Alcotest.(check bool) "online again" true (Rcu.is_online th);
  Rcu.unregister q th;
  Alcotest.(check int) "drained" 0 (Rcu.registered_readers q)

let test_read_sections_bookkeeping () =
  let q = qsbr () in
  let th = Rcu.register q in
  Rcu.read_lock th;
  Rcu.read_lock th;
  Alcotest.(check bool) "nested" true (Rcu.in_critical_section th);
  Alcotest.check_raises "quiescent inside section rejected"
    (Invalid_argument "Rcu.quiescent_state: inside a critical section")
    (fun () -> Rcu.quiescent_state th);
  Rcu.read_unlock th;
  Rcu.read_unlock th;
  Alcotest.(check bool) "outside" false (Rcu.in_critical_section th);
  Rcu.quiescent_state th;
  Rcu.unregister q th

let test_read_lock_offline_rejected () =
  let q = qsbr () in
  let th = Rcu.register q in
  Rcu.offline th;
  Alcotest.check_raises "offline read rejected"
    (Invalid_argument "Rcu.read_lock: reader is offline") (fun () ->
      Rcu.read_lock th);
  Rcu.unregister q th

(* synchronize must wait for a non-quiescing online thread and release once
   it announces a quiescent state. *)
let test_synchronize_waits_for_quiescence () =
  let q = qsbr () in
  let ready = Atomic.make false in
  let quiesce = Atomic.make false in
  let sync_done = Atomic.make false in
  let participant =
    Domain.spawn (fun () ->
        let th = Rcu.register q in
        Atomic.set ready true;
        while not (Atomic.get quiesce) do
          Domain.cpu_relax ()
        done;
        Rcu.quiescent_state th;
        (* Stay registered until the grace period completes. *)
        while not (Atomic.get sync_done) do
          Rcu.quiescent_state th;
          Domain.cpu_relax ()
        done;
        Rcu.unregister q th)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let syncer =
    Domain.spawn (fun () ->
        Rcu.synchronize q;
        Atomic.set sync_done true)
  in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "blocked until quiescent state" false
    (Atomic.get sync_done);
  Atomic.set quiesce true;
  Domain.join syncer;
  Alcotest.(check bool) "released" true (Atomic.get sync_done);
  Domain.join participant;
  Alcotest.(check int) "one grace period" 1 ((Rcu.stats q).grace_periods)

let test_synchronize_skips_offline () =
  let q = qsbr () in
  let parked = Atomic.make false in
  let release = Atomic.make false in
  let participant =
    Domain.spawn (fun () ->
        let th = Rcu.register q in
        Rcu.offline th;
        Atomic.set parked true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Rcu.unregister q th)
  in
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  (* Offline threads are in an extended quiescent state: no waiting. *)
  Rcu.synchronize q;
  Atomic.set release true;
  Domain.join participant

let test_flavour_memb_roundtrip () =
  let rcu = Rcu.create () in
  Alcotest.(check bool) "memb mode" true (Rcu.mode rcu = Memb);
  Rcu.with_read_current rcu (fun () -> ());
  Rcu.synchronize rcu;
  let fired = ref false in
  Rcu.call_rcu rcu (fun () -> fired := true);
  Rcu.barrier rcu;
  Alcotest.(check bool) "callback fired" true !fired;
  Rcu.offline_current rcu

(* More than 64 sections, so the reader announces a quiescent state by
   itself at least once. *)
let test_flavour_qsbr_roundtrip () =
  let q = qsbr () in
  Alcotest.(check bool) "qsbr mode" true (Rcu.mode q = Qsbr);
  for _ = 1 to 130 do
    Rcu.with_read_current q (fun () -> ())
  done;
  Rcu.synchronize q;
  let fired = ref false in
  Rcu.call_rcu q (fun () -> fired := true);
  Rcu.barrier q;
  Alcotest.(check bool) "callback fired" true !fired;
  (* Offline then transparently back online on the next read. *)
  Rcu.offline_current q;
  Rcu.with_read_current q (fun () -> ());
  Rcu.synchronize q

(* The QSBR rules that hold a reader to its protocol. *)
let test_flavour_qsbr_validation () =
  let q = qsbr () in
  let r = Rcu.reader_for_current_domain q in
  Rcu.read_lock r;
  Alcotest.check_raises "offline inside a section"
    (Invalid_argument "Rcu.offline: inside a critical section") (fun () ->
      Rcu.offline r);
  Rcu.read_unlock r;
  Rcu.offline r;
  Alcotest.(check bool) "offline" false (Rcu.is_online r);
  Rcu.synchronize q;
  Alcotest.(check bool) "synchronize leaves an offline caller offline" false
    (Rcu.is_online r);
  Rcu.unregister q r

(* An online reader that parks without quiescing holds up a QSBR grace
   period, and the shared watchdog names it. *)
let test_qsbr_watchdog () =
  let q = Rcu.create ~mode:Qsbr ~stall_budget:0.02 () in
  let parked = Atomic.make false in
  let parker =
    Domain.spawn (fun () ->
        Rcu.with_read_current q (fun () -> ());
        Atomic.set parked true;
        Unix.sleepf 0.12;
        Rcu.offline_current q;
        (Domain.self () :> int))
  in
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  Rcu.synchronize q;
  let parker_id = Domain.join parker in
  Alcotest.(check int) "one stall" 1 (Rcu.stall_count q);
  match Rcu.last_stall q with
  | None -> Alcotest.fail "no stall report recorded"
  | Some r ->
      Alcotest.(check int) "names the parked domain" parker_id r.Rcu.owner_domain;
      Alcotest.(check int) "outside any section" 0 r.Rcu.nesting

let make_qsbr_table () =
  Rp_ht.create ~rcu:(qsbr ()) ~initial_size:64 ~auto_resize:false
    ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()

(* QSBR grace periods report through the same instruments as memb ones. *)
let test_qsbr_observe () =
  let t = make_qsbr_table () in
  let reg = Rp_obs.Registry.create () in
  Rcu.observe (Rp_ht.rcu t) reg;
  Rcu.synchronize (Rp_ht.rcu t);
  Alcotest.(check (option (float 0.))) "grace periods" (Some 1.)
    (Rp_obs.Registry.value reg "rcu_grace_periods_total");
  Alcotest.(check (option (float 0.))) "stalls" (Some 0.)
    (Rp_obs.Registry.value reg "rcu_stalls_total");
  Alcotest.(check bool) "grace-period histogram" true
    (List.mem "rcu_grace_period_ns" (Rp_obs.Registry.names reg))

let test_qsbr_table_basics () =
  let t = make_qsbr_table () in
  for i = 0 to 199 do
    Rp_ht.insert t i (i * 2)
  done;
  for i = 0 to 199 do
    Alcotest.(check (option int)) "find" (Some (i * 2)) (Rp_ht.find t i)
  done;
  Alcotest.(check bool) "table runs qsbr" true (Rcu.mode (Rp_ht.rcu t) = Qsbr)

let test_qsbr_table_resize_under_readers () =
  let t = make_qsbr_table () in
  let resident = 512 in
  for i = 0 to resident - 1 do
    Rp_ht.insert t i i
  done;
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let readers =
    List.init 2 (fun seed ->
        Domain.spawn (fun () ->
            let prng = Rp_workload.Prng.create ~seed in
            while not (Atomic.get stop) do
              let k = Rp_workload.Prng.below prng resident in
              if Rp_ht.find t k <> Some k then Atomic.incr violations
            done;
            (* Mandatory for QSBR: stop stalling grace periods on exit. *)
            Rcu.offline_current (Rp_ht.rcu t)))
  in
  for _ = 1 to 25 do
    Rp_ht.resize t 2048;
    Rp_ht.resize t 64
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Rcu.barrier (Rp_ht.rcu t);
  Alcotest.(check int) "no violations under qsbr resize" 0 (Atomic.get violations);
  (match Rp_ht.validate t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant: %s" msg);
  let stats = Rp_ht.resize_stats t in
  Alcotest.(check bool) "resizes completed" true
    (stats.expands = 25 * 5 && stats.shrinks = 25 * 5)

let () =
  Alcotest.run "qsbr"
    [
      ( "thread lifecycle",
        [
          Alcotest.test_case "register/online/offline" `Quick test_register_online;
          Alcotest.test_case "read-section bookkeeping" `Quick
            test_read_sections_bookkeeping;
          Alcotest.test_case "offline read rejected" `Quick
            test_read_lock_offline_rejected;
        ] );
      ( "grace periods",
        [
          Alcotest.test_case "waits for quiescence" `Quick
            test_synchronize_waits_for_quiescence;
          Alcotest.test_case "skips offline threads" `Quick
            test_synchronize_skips_offline;
          Alcotest.test_case "watchdog reports a parked online reader" `Slow
            test_qsbr_watchdog;
          Alcotest.test_case "observe registers the shared instruments" `Quick
            test_qsbr_observe;
        ] );
      ( "flavour",
        [
          Alcotest.test_case "memb round trip" `Quick test_flavour_memb_roundtrip;
          Alcotest.test_case "qsbr round trip" `Quick test_flavour_qsbr_roundtrip;
          Alcotest.test_case "qsbr validation" `Quick test_flavour_qsbr_validation;
        ] );
      ( "qsbr table",
        [
          Alcotest.test_case "basics" `Quick test_qsbr_table_basics;
          Alcotest.test_case "resize under readers" `Slow
            test_qsbr_table_resize_under_readers;
        ] );
    ]
