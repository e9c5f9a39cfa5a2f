(* The torture harness itself: clean runs report zero violations on every
   implementation; configuration validation; report arithmetic. *)

let quick table ~resizers =
  {
    Rp_torture.Torture.default_config with
    table;
    duration = 0.25;
    readers = 2;
    writers = 1;
    resizers;
    resident_keys = 256;
    churn_keys = 128;
    small_size = 64;
    large_size = 1024;
  }

let run_clean table ~resizers () =
  let report = Rp_torture.Torture.run (quick table ~resizers) in
  Alcotest.(check int) "no violations" 0 (Rp_torture.Torture.violations report);
  Alcotest.(check bool) "readers progressed" true (report.reader_checks > 0);
  if resizers > 0 then
    Alcotest.(check bool) "resizes happened" true (report.resize_flips > 0)

(* Every implementation must survive the perturbation failpoints: the
   injected yields/delays change timing only, never semantics. *)
let run_faulted table ~resizers () =
  let config =
    { (quick table ~resizers) with fault_injection = true; duration = 0.15 }
  in
  let report = Rp_torture.Torture.run config in
  Alcotest.(check int) "no violations with faults" 0
    (Rp_torture.Torture.violations report);
  Alcotest.(check bool) "no armed sites left behind" true
    (Rp_fault.armed_sites () = [])

let test_fault_injection () =
  let config = { (quick "rp" ~resizers:1) with fault_injection = true } in
  let report = Rp_torture.Torture.run config in
  Alcotest.(check int) "no violations with faults" 0
    (Rp_torture.Torture.violations report)

let test_no_writers_or_resizers () =
  let config = { (quick "rp" ~resizers:0) with writers = 0 } in
  let report = Rp_torture.Torture.run config in
  Alcotest.(check int) "quiet run clean" 0 (Rp_torture.Torture.violations report);
  Alcotest.(check int) "no writer ops" 0 report.writer_ops;
  Alcotest.(check int) "no flips" 0 report.resize_flips

let test_validation () =
  let bad f = Alcotest.(check bool) "rejected" true (match f () with
    | exception Invalid_argument _ -> true
    | _ -> false)
  in
  bad (fun () -> Rp_torture.Torture.run { Rp_torture.Torture.default_config with table = "nope" });
  bad (fun () -> Rp_torture.Torture.run { Rp_torture.Torture.default_config with duration = 0.0 });
  bad (fun () -> Rp_torture.Torture.run { Rp_torture.Torture.default_config with readers = 0 });
  bad (fun () ->
      Rp_torture.Torture.run
        { Rp_torture.Torture.default_config with table = "rp-fixed"; resizers = 1 })

let test_scenario_crash_resizer () =
  let config =
    {
      (quick "rp" ~resizers:2) with
      scenario = "crash_resizer";
      duration = 0.4;
    }
  in
  let report = Rp_torture.Torture.run config in
  Alcotest.(check int) "no violations under resizer crashes" 0
    (Rp_torture.Torture.violations report);
  Alcotest.(check bool) "resizers were killed" true (report.faults_injected > 0);
  Alcotest.(check bool) "writers completed interrupted unzips" true
    (report.recoveries >= 1)

(* With fault injection on, the splice site is both a perturbation and
   the crash scenarios' own kill site: it is armed once, with the
   scenario's [Raise], and each fire counts once, so [faults_injected]
   is the sum of the armed sites' fires. *)
let test_crash_fault_count () =
  List.iter
    (fun (scenario, own) ->
      Rp_fault.reset ();
      let config =
        { (quick "rp" ~resizers:2) with scenario; duration = 0.3; fault_injection = true }
      in
      let report = Rp_torture.Torture.run config in
      let sites =
        [ "rcu.synchronize.scan"; "rcu.call_rcu.enqueue"; "rp_ht.unzip.splice"; "rcu.synchronize.pre" ]
        @ own
      in
      Alcotest.(check int) (scenario ^ ": no violations") 0 (Rp_torture.Torture.violations report);
      Alcotest.(check bool) (scenario ^ ": the splice site fired") true
        (Rp_fault.fires "rp_ht.unzip.splice" > 0);
      Alcotest.(check int)
        (scenario ^ ": faults_injected = the armed sites' fires")
        (List.fold_left (fun n site -> n + Rp_fault.fires site) 0 sites)
        report.faults_injected)
    [ ("crash_resizer", []); ("lazy_split_crash", [ "rp_ht.split.lazy" ]) ];
  Rp_fault.reset ()

let test_scenario_stalled_reader () =
  let config =
    { (quick "rp" ~resizers:1) with scenario = "stalled_reader"; duration = 0.4 }
  in
  let report = Rp_torture.Torture.run config in
  Alcotest.(check int) "no violations with a stalled reader" 0
    (Rp_torture.Torture.violations report);
  Alcotest.(check bool) "watchdog fired" true (report.stalls_detected >= 1)

let test_scenario_torn_io () =
  let config =
    {
      (quick "rp" ~resizers:0) with
      scenario = "torn_io";
      duration = 0.3;
      resident_keys = 32;
      churn_keys = 32;
    }
  in
  let report = Rp_torture.Torture.run config in
  Alcotest.(check int) "no violations over torn transport" 0
    (Rp_torture.Torture.violations report);
  Alcotest.(check bool) "faults were injected" true (report.faults_injected > 0);
  Alcotest.(check bool) "clients made progress" true (report.reader_checks > 0)

let test_scenario_validation () =
  let bad f =
    Alcotest.(check bool) "rejected" true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  bad (fun () ->
      Rp_torture.Torture.run
        { Rp_torture.Torture.default_config with scenario = "nope" });
  (* Every fault scenario refuses a non-rp table; only steady takes any. *)
  List.iter
    (fun scenario ->
      if scenario <> "steady" then
        bad (fun () ->
            Rp_torture.Torture.run
              { Rp_torture.Torture.default_config with scenario; table = "lock" }))
    Rp_torture.Torture.scenario_names;
  Alcotest.(check (list string))
    "scenario names"
    [
      "steady"; "crash_resizer"; "lazy_split_crash"; "mixed_rw";
      "stalled_reader"; "torn_io"; "crash_recovery"; "overload_storm";
      "slow_client"; "disk_full"; "replication_divergence"; "tier_crash";
    ]
    Rp_torture.Torture.scenario_names

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* A scenario that fails mid-run must still release what it took. The
   follower child exits at startup, so replication_divergence raises; the
   leader child it spawned first must not outlive the run. *)
let test_teardown_on_failure () =
  let real =
    match Sys.getenv_opt "TORTURE_SERVER_BIN" with
    | Some path -> path
    | None ->
        Filename.concat
          (Filename.dirname Sys.executable_name)
          (Filename.concat ".." (Filename.concat "bin" "memcached_server.exe"))
  in
  let real =
    if Filename.is_relative real then Filename.concat (Sys.getcwd ()) real
    else real
  in
  let script = Filename.temp_file "rp-torture-no-follower" ".sh" in
  Out_channel.with_open_text script (fun oc ->
      Printf.fprintf oc
        "#!/bin/sh\n\
         for a in \"$@\"; do [ \"$a\" = --replica-of ] && exit 1; done\n\
         exec %s \"$@\"\n"
        (Filename.quote real));
  Unix.chmod script 0o755;
  Unix.putenv "TORTURE_SERVER_BIN" script;
  let raised =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "TORTURE_SERVER_BIN" real;
        Sys.remove script)
      (fun () ->
        match
          Rp_torture.Torture.run
            {
              (quick "rp" ~resizers:0) with
              scenario = "replication_divergence";
              duration = 0.3;
              churn_keys = 32;
            }
        with
        | _ -> false
        | exception _ -> true)
  in
  Alcotest.(check bool) "run raises" true raised;
  let leader = Printf.sprintf "rp-torture-repl-leader-%d" (Unix.getpid ()) in
  let cmdline pid =
    try
      In_channel.with_open_bin
        (Filename.concat "/proc" (Filename.concat pid "cmdline"))
        In_channel.input_all
    with Sys_error _ -> ""
  in
  Alcotest.(check (list string))
    "no process left running" []
    (List.filter
       (fun pid -> contains (cmdline pid) leader)
       (Array.to_list (Sys.readdir "/proc")))

let test_report_rendering () =
  let report =
    {
      Rp_torture.Torture.reader_checks = 10;
      missing_resident = 0;
      wrong_value = 0;
      writer_ops = 5;
      resize_flips = 2;
      faults_injected = 3;
      stalls_detected = 0;
      recoveries = 1;
      elapsed = 1.0;
      metrics = [ ("rp_ht_lookups_total", "10") ];
    }
  in
  let s = Format.asprintf "%a" Rp_torture.Torture.pp_report report in
  Alcotest.(check bool) "mentions PASS" true
    (String.length s > 0
    &&
    let rec find i =
      i + 4 <= String.length s && (String.sub s i 4 = "PASS" || find (i + 1))
    in
    find 0)

let () =
  Alcotest.run "torture"
    [
      ( "clean runs",
        [
          Alcotest.test_case "rp" `Slow (run_clean "rp" ~resizers:1);
          Alcotest.test_case "rp-qsbr" `Slow (run_clean "rp-qsbr" ~resizers:1);
          Alcotest.test_case "rp-fixed" `Slow (run_clean "rp-fixed" ~resizers:0);
          Alcotest.test_case "ddds" `Slow (run_clean "ddds" ~resizers:1);
          Alcotest.test_case "rwlock" `Slow (run_clean "rwlock" ~resizers:1);
          Alcotest.test_case "lock" `Slow (run_clean "lock" ~resizers:1);
          Alcotest.test_case "xu" `Slow (run_clean "xu" ~resizers:1);
        ] );
      ( "fault matrix",
        [
          Alcotest.test_case "rp" `Slow (run_faulted "rp" ~resizers:1);
          Alcotest.test_case "rp-qsbr" `Slow (run_faulted "rp-qsbr" ~resizers:1);
          Alcotest.test_case "rp-fixed" `Slow (run_faulted "rp-fixed" ~resizers:0);
          Alcotest.test_case "ddds" `Slow (run_faulted "ddds" ~resizers:1);
          Alcotest.test_case "rwlock" `Slow (run_faulted "rwlock" ~resizers:1);
          Alcotest.test_case "lock" `Slow (run_faulted "lock" ~resizers:1);
          Alcotest.test_case "xu" `Slow (run_faulted "xu" ~resizers:1);
        ] );
      ( "modes",
        [
          Alcotest.test_case "fault injection" `Slow test_fault_injection;
          Alcotest.test_case "quiet run" `Slow test_no_writers_or_resizers;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "crash_resizer" `Slow test_scenario_crash_resizer;
          Alcotest.test_case "crash fault count" `Slow test_crash_fault_count;
          Alcotest.test_case "stalled_reader" `Slow test_scenario_stalled_reader;
          Alcotest.test_case "torn_io" `Slow test_scenario_torn_io;
          Alcotest.test_case "scenario validation" `Quick test_scenario_validation;
          Alcotest.test_case "teardown on failure" `Slow test_teardown_on_failure;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
        ] );
    ]
