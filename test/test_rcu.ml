(* RCU primitive semantics: registration, nesting, publication, grace
   periods (including cross-domain blocking behaviour), deferred callbacks. *)

let test_register_unregister () =
  let rcu = Rcu.create () in
  Alcotest.(check int) "empty registry" 0 (Rcu.registered_readers rcu);
  let r1 = Rcu.register rcu in
  let r2 = Rcu.register rcu in
  Alcotest.(check int) "two readers" 2 (Rcu.registered_readers rcu);
  Rcu.unregister rcu r1;
  Rcu.unregister rcu r2;
  Alcotest.(check int) "drained" 0 (Rcu.registered_readers rcu)

let test_slots_exhaust () =
  let rcu = Rcu.create ~max_readers:2 () in
  let r1 = Rcu.register rcu in
  let r2 = Rcu.register rcu in
  Alcotest.check_raises "third reader refused" Rcu.Too_many_readers (fun () ->
      ignore (Rcu.register rcu));
  Rcu.unregister rcu r1;
  (* A freed slot is reusable. *)
  let r3 = Rcu.register rcu in
  Rcu.unregister rcu r2;
  Rcu.unregister rcu r3

let test_nesting () =
  let rcu = Rcu.create () in
  let r = Rcu.register rcu in
  Alcotest.(check bool) "initially outside" false (Rcu.in_critical_section r);
  Rcu.read_lock r;
  Rcu.read_lock r;
  Alcotest.(check bool) "nested inside" true (Rcu.in_critical_section r);
  Rcu.read_unlock r;
  Alcotest.(check bool) "still inside" true (Rcu.in_critical_section r);
  Rcu.read_unlock r;
  Alcotest.(check bool) "outside" false (Rcu.in_critical_section r);
  Rcu.unregister rcu r

let test_unbalanced_unlock_rejected () =
  let rcu = Rcu.create () in
  let r = Rcu.register rcu in
  Alcotest.check_raises "unlock outside section"
    (Invalid_argument "Rcu.read_unlock: not in a critical section") (fun () ->
      Rcu.read_unlock r);
  Rcu.unregister rcu r

let test_unregister_inside_section_rejected () =
  let rcu = Rcu.create () in
  let r = Rcu.register rcu in
  Rcu.read_lock r;
  Alcotest.check_raises "unregister inside section"
    (Invalid_argument "Rcu.unregister: reader inside a critical section")
    (fun () -> Rcu.unregister rcu r);
  Rcu.read_unlock r;
  Rcu.unregister rcu r

let test_with_read_releases_on_exception () =
  let rcu = Rcu.create () in
  let r = Rcu.register rcu in
  (try Rcu.with_read r (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "released" false (Rcu.in_critical_section r);
  Rcu.unregister rcu r

let test_synchronize_quiescent () =
  let rcu = Rcu.create () in
  (* No readers at all: must return immediately. *)
  Rcu.synchronize rcu;
  let r = Rcu.register rcu in
  (* Registered but idle reader: still immediate. *)
  Rcu.synchronize rcu;
  let stats = Rcu.stats rcu in
  Alcotest.(check int) "two grace periods" 2 stats.grace_periods;
  Rcu.unregister rcu r

let test_synchronize_rejected_inside_section () =
  let rcu = Rcu.create () in
  let r = Rcu.reader_for_current_domain rcu in
  Rcu.read_lock r;
  (try
     Rcu.synchronize rcu;
     Rcu.read_unlock r;
     Alcotest.fail "synchronize inside read section should raise"
   with Invalid_argument _ -> Rcu.read_unlock r)

(* The defining property: synchronize waits for pre-existing readers and
   returns only after they leave their critical sections. *)
let test_synchronize_waits_for_reader () =
  let rcu = Rcu.create () in
  let reader_in = Atomic.make false in
  let release = Atomic.make false in
  let sync_done = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let r = Rcu.register rcu in
        Rcu.read_lock r;
        Atomic.set reader_in true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        (* synchronize must not have completed while we were inside. *)
        let completed_early = Atomic.get sync_done in
        Rcu.read_unlock r;
        Rcu.unregister rcu r;
        completed_early)
  in
  while not (Atomic.get reader_in) do
    Domain.cpu_relax ()
  done;
  let syncer =
    Domain.spawn (fun () ->
        Rcu.synchronize rcu;
        Atomic.set sync_done true)
  in
  (* Give synchronize ample opportunity to (incorrectly) finish. *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "synchronize still blocked" false (Atomic.get sync_done);
  Atomic.set release true;
  let completed_early = Domain.join reader in
  Domain.join syncer;
  Alcotest.(check bool) "did not complete during read section" false
    completed_early;
  Alcotest.(check bool) "completed after release" true (Atomic.get sync_done)

(* Two systhreads of one domain share its reader slot. Thread A holds a
   section, parked on a condition; thread B's synchronize must wait for A
   to leave, not mistake A's section for its own. *)
let test_synchronize_waits_for_sibling_thread () =
  let rcu = Rcu.create () in
  let m = Mutex.create () and cond = Condition.create () in
  let reader_in = ref false and release = ref false in
  let a =
    Thread.create
      (fun () ->
        Rcu.read_lock_current rcu;
        Mutex.lock m;
        reader_in := true;
        Condition.broadcast cond;
        while not !release do
          Condition.wait cond m
        done;
        Mutex.unlock m;
        Rcu.read_unlock_current rcu)
      ()
  in
  Mutex.lock m;
  while not !reader_in do
    Condition.wait cond m
  done;
  Mutex.unlock m;
  let outcome = Atomic.make None in
  let b =
    Thread.create
      (fun () ->
        Atomic.set outcome
          (Some (match Rcu.synchronize rcu with () -> Ok () | exception e -> Error e)))
      ()
  in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "synchronize waits for the sibling" true
    (Atomic.get outcome = None);
  Mutex.lock m;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock m;
  Thread.join a;
  Thread.join b;
  match Atomic.get outcome with
  | Some (Ok ()) -> Alcotest.(check int) "one grace period" 1 (Rcu.stats rcu).grace_periods
  | Some (Error e) -> Alcotest.failf "synchronize raised %s" (Printexc.to_string e)
  | None -> Alcotest.fail "synchronize did not return"

(* Readers that begin after synchronize starts must not be waited for:
   lookups arriving during a grace period don't stall it forever. *)
let test_synchronize_ignores_new_readers () =
  let rcu = Rcu.create () in
  let stop = Atomic.make false in
  let churner =
    Domain.spawn (fun () ->
        let r = Rcu.register rcu in
        while not (Atomic.get stop) do
          Rcu.read_lock r;
          Rcu.read_unlock r
        done;
        Rcu.unregister rcu r)
  in
  (* If new readers were waited for, this would likely never finish. *)
  for _ = 1 to 50 do
    Rcu.synchronize rcu
  done;
  Atomic.set stop true;
  Domain.join churner

let test_publication_ordering () =
  (* A reader that dereferences the published cell must observe the fully
     initialised payload. *)
  let rcu = Rcu.create () in
  let cell = Atomic.make None in
  let iterations = 10_000 in
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        let r = Rcu.register rcu in
        while not (Atomic.get stop) do
          Rcu.read_lock r;
          (match Rcu.dereference cell with
          | Some (a, b) -> if b <> a * 2 then Atomic.incr torn
          | None -> ());
          Rcu.read_unlock r
        done;
        Rcu.unregister rcu r)
  in
  for i = 1 to iterations do
    Rcu.publish cell (Some (i, i * 2))
  done;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get torn)

let test_call_rcu_and_barrier () =
  let rcu = Rcu.create () in
  let fired = Atomic.make 0 in
  for _ = 1 to 10 do
    Rcu.call_rcu rcu (fun () -> Atomic.incr fired)
  done;
  Alcotest.(check int) "pending before barrier" 10 (Rcu.pending_callbacks rcu);
  Rcu.barrier rcu;
  Alcotest.(check int) "all fired" 10 (Atomic.get fired);
  Alcotest.(check int) "queue drained" 0 (Rcu.pending_callbacks rcu)

let test_call_rcu_amortized_flush () =
  let rcu = Rcu.create () in
  let fired = Atomic.make 0 in
  (* Exceed the internal threshold; callbacks must fire without an explicit
     barrier. *)
  for _ = 1 to 200 do
    Rcu.call_rcu rcu (fun () -> Atomic.incr fired)
  done;
  Alcotest.(check bool) "auto-flush happened" true (Atomic.get fired > 0);
  Rcu.barrier rcu;
  Alcotest.(check int) "eventually all fired" 200 (Atomic.get fired)

let test_callbacks_run_after_grace_period () =
  let rcu = Rcu.create () in
  let reader_in = Atomic.make false in
  let release = Atomic.make false in
  let fired_during_section = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let r = Rcu.register rcu in
        Rcu.read_lock r;
        Atomic.set reader_in true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Rcu.read_unlock r;
        Rcu.unregister rcu r)
  in
  while not (Atomic.get reader_in) do
    Domain.cpu_relax ()
  done;
  let fired = Atomic.make false in
  Rcu.call_rcu rcu (fun () -> Atomic.set fired true);
  let barrier_domain = Domain.spawn (fun () -> Rcu.barrier rcu) in
  Unix.sleepf 0.05;
  if Atomic.get fired then Atomic.set fired_during_section true;
  Atomic.set release true;
  Domain.join reader;
  Domain.join barrier_domain;
  Alcotest.(check bool) "not fired during read section" false
    (Atomic.get fired_during_section);
  Alcotest.(check bool) "fired after grace period" true (Atomic.get fired)

let test_dls_reader_reuse () =
  let rcu = Rcu.create () in
  let r1 = Rcu.reader_for_current_domain rcu in
  let r2 = Rcu.reader_for_current_domain rcu in
  Alcotest.(check bool) "same handle returned" true (r1 == r2);
  Alcotest.(check int) "one registration" 1 (Rcu.registered_readers rcu);
  (* read_lock_current / read_unlock_current use the same slot. *)
  Rcu.read_lock_current rcu;
  Alcotest.(check bool) "current in section" true (Rcu.in_critical_section r1);
  Rcu.read_unlock_current rcu;
  Rcu.unregister rcu r1;
  (* After unregister, a fresh handle is created on demand. *)
  let r3 = Rcu.reader_for_current_domain rcu in
  Alcotest.(check int) "re-registered" 1 (Rcu.registered_readers rcu);
  Rcu.unregister rcu r3

let test_independent_flavours () =
  let a = Rcu.create () in
  let b = Rcu.create () in
  let ra = Rcu.reader_for_current_domain a in
  Rcu.read_lock ra;
  (* A reader in flavour [a] must not block flavour [b]'s grace periods. *)
  Rcu.synchronize b;
  Rcu.read_unlock ra;
  let stats_b = Rcu.stats b in
  Alcotest.(check int) "b advanced" 1 stats_b.grace_periods;
  Rcu.unregister a ra

let test_stats_format () =
  let rcu = Rcu.create () in
  Rcu.synchronize rcu;
  let s = Format.asprintf "%a" Rcu.pp_stats (Rcu.stats rcu) in
  Alcotest.(check bool) "stats mention grace_periods" true
    (String.length s >= 13 && String.sub s 0 13 = "grace_periods")

let prop_many_grace_periods =
  QCheck.Test.make ~name:"counted grace periods match synchronize calls"
    ~count:30
    QCheck.(int_range 1 50)
    (fun n ->
      let rcu = Rcu.create () in
      for _ = 1 to n do
        Rcu.synchronize rcu
      done;
      let s = Rcu.stats rcu in
      s.grace_periods = n && s.synchronize_calls = n)

(* --- grace-period stall watchdog --- *)

let test_stall_watchdog_detects_parked_reader () =
  let rcu = Rcu.create ~stall_budget:0.02 () in
  let handler_reports = Atomic.make 0 in
  Rcu.set_stall_handler rcu (Some (fun _ -> Atomic.incr handler_reports));
  let parked = Atomic.make false in
  let parker =
    Domain.spawn (fun () ->
        let r = Rcu.register rcu in
        Rcu.read_lock r;
        Atomic.set parked true;
        Unix.sleepf 0.12;
        Rcu.read_unlock r;
        Rcu.unregister rcu r;
        (Domain.self () :> int))
  in
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  Rcu.synchronize rcu;
  let parker_id = Domain.join parker in
  Alcotest.(check bool) "stall detected" true (Rcu.stall_count rcu >= 1);
  Alcotest.(check int) "once per slot per grace period" 1 (Rcu.stall_count rcu);
  Alcotest.(check int) "handler invoked" 1 (Atomic.get handler_reports);
  match Rcu.last_stall rcu with
  | None -> Alcotest.fail "no stall report recorded"
  | Some r ->
      Alcotest.(check int) "names the parked domain" parker_id r.Rcu.owner_domain;
      Alcotest.(check bool) "inside a read section" true (r.Rcu.nesting >= 1);
      Alcotest.(check bool) "waited past the budget" true (r.Rcu.waited >= 0.02);
      let rendered = Format.asprintf "%a" Rcu.pp_stall_report r in
      Alcotest.(check bool) "report renders" true (String.length rendered > 0)

let test_stall_budget_validation () =
  let rcu = Rcu.create () in
  Alcotest.(check (option (float 1e-9))) "off by default" None (Rcu.stall_budget rcu);
  Alcotest.check_raises "non-positive budget rejected"
    (Invalid_argument "Rcu.set_stall_budget: budget <= 0") (fun () ->
      Rcu.set_stall_budget rcu (Some 0.0));
  Rcu.set_stall_budget rcu (Some 1.5);
  Alcotest.(check (option (float 1e-9))) "set" (Some 1.5) (Rcu.stall_budget rcu);
  Rcu.set_stall_budget rcu None;
  Alcotest.(check (option (float 1e-9))) "cleared" None (Rcu.stall_budget rcu)

let test_no_stall_under_budget () =
  let rcu = Rcu.create ~stall_budget:5.0 () in
  let r = Rcu.register rcu in
  Rcu.read_lock r;
  Rcu.read_unlock r;
  Rcu.synchronize rcu;
  Rcu.unregister rcu r;
  Alcotest.(check int) "no stalls" 0 (Rcu.stall_count rcu);
  Alcotest.(check bool) "no report" true (Rcu.last_stall rcu = None)

let () =
  Alcotest.run "rcu"
    [
      ( "registration",
        [
          Alcotest.test_case "register/unregister" `Quick test_register_unregister;
          Alcotest.test_case "slot exhaustion and reuse" `Quick test_slots_exhaust;
          Alcotest.test_case "domain-local handle reuse" `Quick test_dls_reader_reuse;
        ] );
      ( "read sections",
        [
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "unbalanced unlock rejected" `Quick
            test_unbalanced_unlock_rejected;
          Alcotest.test_case "unregister inside section rejected" `Quick
            test_unregister_inside_section_rejected;
          Alcotest.test_case "with_read releases on exception" `Quick
            test_with_read_releases_on_exception;
        ] );
      ( "grace periods",
        [
          Alcotest.test_case "quiescent synchronize" `Quick test_synchronize_quiescent;
          Alcotest.test_case "rejected inside read section" `Quick
            test_synchronize_rejected_inside_section;
          Alcotest.test_case "waits for pre-existing reader" `Quick
            test_synchronize_waits_for_reader;
          Alcotest.test_case "waits for a sibling thread's section" `Quick
            test_synchronize_waits_for_sibling_thread;
          Alcotest.test_case "ignores new readers" `Quick
            test_synchronize_ignores_new_readers;
          Alcotest.test_case "publication ordering" `Quick test_publication_ordering;
          Alcotest.test_case "independent flavours" `Quick test_independent_flavours;
        ] );
      ( "deferred callbacks",
        [
          Alcotest.test_case "call_rcu + barrier" `Quick test_call_rcu_and_barrier;
          Alcotest.test_case "amortized flush" `Quick test_call_rcu_amortized_flush;
          Alcotest.test_case "run after grace period" `Quick
            test_callbacks_run_after_grace_period;
        ] );
      ( "stall watchdog",
        [
          Alcotest.test_case "detects parked reader" `Slow
            test_stall_watchdog_detects_parked_reader;
          Alcotest.test_case "budget validation" `Quick test_stall_budget_validation;
          Alcotest.test_case "quiet under budget" `Quick test_no_stall_under_budget;
        ] );
      ( "stats",
        [
          Alcotest.test_case "pp_stats" `Quick test_stats_format;
          QCheck_alcotest.to_alcotest prop_many_grace_periods;
        ] );
    ]
