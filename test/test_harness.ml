(* Benchmark harness: runner orchestration, statistics, series, reports. *)

let test_runner_counts_ops () =
  let outcome =
    Rp_harness.Runner.run ~duration:0.05
      ~workers:
        (Array.init 3 (fun _ ~stop ->
             Rp_harness.Runner.loop_until_stop ~stop ~f:(fun () -> ())))
      ()
  in
  Alcotest.(check int) "three workers" 3
    (Array.length outcome.Rp_harness.Runner.per_worker_ops);
  Array.iter
    (fun ops -> Alcotest.(check bool) "each made progress" true (ops > 0))
    outcome.Rp_harness.Runner.per_worker_ops;
  Alcotest.(check bool) "elapsed near duration" true
    (outcome.Rp_harness.Runner.elapsed >= 0.04);
  Alcotest.(check int) "total is sum"
    (Array.fold_left ( + ) 0 outcome.Rp_harness.Runner.per_worker_ops)
    (Rp_harness.Runner.total_ops outcome);
  Alcotest.(check bool) "throughput positive" true
    (Rp_harness.Runner.throughput outcome > 0.0)

let test_runner_rejects_empty () =
  Alcotest.check_raises "no workers" (Invalid_argument "Runner.run: no workers")
    (fun () -> ignore (Rp_harness.Runner.run ~duration:0.01 ~workers:[||] ()))

(* A raising worker must not cut the join short: the slower worker's
   shutdown finishes before the exception reaches the caller. *)
let test_runner_joins_all_before_raising () =
  let finished = Atomic.make false in
  let workers =
    [|
      (fun ~stop:_ -> failwith "worker 0");
      (fun ~stop ->
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done;
        Unix.sleepf 0.05;
        Atomic.set finished true;
        0);
    |]
  in
  Alcotest.check_raises "first exception re-raised" (Failure "worker 0")
    (fun () -> ignore (Rp_harness.Runner.run ~duration:0.01 ~workers ()));
  Alcotest.(check bool) "every worker joined first" true (Atomic.get finished)

let test_loop_batched () =
  let stop = Atomic.make false in
  let calls = ref 0 in
  let counter =
    Domain.spawn (fun () ->
        Rp_harness.Runner.loop_batched ~stop ~batch:64 ~f:(fun () -> incr calls))
  in
  Unix.sleepf 0.02;
  Atomic.set stop true;
  let ops = Domain.join counter in
  Alcotest.(check int) "ops counted in batch units" 0 (ops mod 64);
  Alcotest.(check int) "calls match count" ops !calls;
  Alcotest.check_raises "batch < 1"
    (Invalid_argument "Runner.loop_batched: batch < 1") (fun () ->
      ignore (Rp_harness.Runner.loop_batched ~stop ~batch:0 ~f:(fun () -> ())))

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Rp_harness.Stats.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Rp_harness.Stats.mean [||]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0
    (Rp_harness.Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "median even" 2.5
    (Rp_harness.Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "stddev" 1.0
    (Rp_harness.Stats.stddev [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "stddev single" 0.0 (Rp_harness.Stats.stddev [| 5.0 |])

let test_histogram () =
  let h = Rp_harness.Stats.Histogram.create () in
  Alcotest.(check int) "empty" 0 (Rp_harness.Stats.Histogram.count h);
  Alcotest.(check (float 1e-9)) "empty percentile" 0.0
    (Rp_harness.Stats.Histogram.percentile h 99.0);
  List.iter (Rp_harness.Stats.Histogram.record h) [ 10.0; 20.0; 30.0; 1000.0 ];
  Alcotest.(check int) "count" 4 (Rp_harness.Stats.Histogram.count h);
  Alcotest.(check (float 1e-6)) "mean" 265.0 (Rp_harness.Stats.Histogram.mean h);
  (* p50 of {10,20,30,1000}: second sample (20 ns) lives in bucket [16,32). *)
  Alcotest.(check (float 1e-9)) "p50 upper bound" 32.0
    (Rp_harness.Stats.Histogram.percentile h 50.0);
  Alcotest.(check bool) "p100 covers max" true
    (Rp_harness.Stats.Histogram.percentile h 100.0 >= 1000.0)

let test_histogram_merge () =
  let a = Rp_harness.Stats.Histogram.create () in
  let b = Rp_harness.Stats.Histogram.create () in
  Rp_harness.Stats.Histogram.record a 10.0;
  Rp_harness.Stats.Histogram.record b 100.0;
  let m = Rp_harness.Stats.Histogram.merge a b in
  Alcotest.(check int) "merged count" 2 (Rp_harness.Stats.Histogram.count m);
  Alcotest.(check (float 1e-6)) "merged mean" 55.0 (Rp_harness.Stats.Histogram.mean m)

let test_series () =
  let s = Rp_harness.Series.make ~label:"x" ~points:[ (1, 10.0); (4, 40.0) ] in
  Alcotest.(check (option (float 1e-9))) "y_at hit" (Some 10.0)
    (Rp_harness.Series.y_at s 1);
  Alcotest.(check (option (float 1e-9))) "y_at miss" None (Rp_harness.Series.y_at s 2);
  let scaled = Rp_harness.Series.scale s 0.5 in
  Alcotest.(check (option (float 1e-9))) "scaled" (Some 20.0)
    (Rp_harness.Series.y_at scaled 4);
  let s2 = Rp_harness.Series.make ~label:"y" ~points:[ (2, 1.0); (4, 2.0) ] in
  Alcotest.(check (list int)) "xs union sorted" [ 1; 2; 4 ]
    (Rp_harness.Series.xs [ s; s2 ])

let test_csv () =
  let s1 = Rp_harness.Series.make ~label:"a" ~points:[ (1, 1.5); (2, 2.5) ] in
  let s2 = Rp_harness.Series.make ~label:"b" ~points:[ (1, 3.0) ] in
  let csv = Rp_harness.Report.csv_of_series ~x_label:"threads" [ s1; s2 ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "threads,a,b" (List.nth lines 0);
  Alcotest.(check bool) "row 1 has both" true
    (String.length (List.nth lines 1) > String.length "1,1.5");
  (* Missing point renders as an empty cell. *)
  let row2 = List.nth lines 2 in
  Alcotest.(check bool) "row 2 trailing empty cell" true
    (String.length row2 > 0 && row2.[String.length row2 - 1] = ',')

let test_write_csv_roundtrip () =
  let path = Filename.temp_file "rp_test" ".csv" in
  let s = Rp_harness.Series.make ~label:"t" ~points:[ (1, 9.0) ] in
  Rp_harness.Report.write_csv ~path ~x_label:"n" [ s ];
  let ic = open_in path in
  let header = input_line ic in
  let row = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "n,t" header;
  Alcotest.(check string) "row" "1,9.000000" row

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let with_captured_stdout f =
  let path = Filename.temp_file "rp_capture" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved;
    Unix.close fd
  in
  (match f () with
  | () -> restore ()
  | exception e ->
      restore ();
      raise e);
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  contents

let test_print_table_alignment () =
  let out =
    with_captured_stdout (fun () ->
        Rp_harness.Report.print_table ~header:[ "name"; "value" ]
          ~rows:[ [ "alpha"; "1" ]; [ "b"; "22222" ] ])
  in
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* All lines equally wide (column alignment). *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_print_series_table () =
  let s = Rp_harness.Series.make ~label:"rp" ~points:[ (1, 1.0); (16, 16.0) ] in
  let out =
    with_captured_stdout (fun () ->
        Rp_harness.Report.print_series_table ~unit_label:"Mops/s"
          ~x_label:"readers" [ s ])
  in
  Alcotest.(check bool) "mentions unit" true (contains_substring out "Mops/s")

let test_ascii_chart_renders () =
  let s = Rp_harness.Series.make ~label:"rp" ~points:[ (1, 1.0); (8, 8.0) ] in
  let out =
    with_captured_stdout (fun () ->
        Rp_harness.Report.print_ascii_chart ~title:"test chart" [ s ])
  in
  Alcotest.(check bool) "has title" true (contains_substring out "test chart");
  Alcotest.(check bool) "has legend" true (contains_substring out "* = rp")

let test_ascii_chart_empty () =
  let out =
    with_captured_stdout (fun () ->
        Rp_harness.Report.print_ascii_chart ~title:"empty" [])
  in
  Alcotest.(check bool) "handles no data" true (contains_substring out "(no data)")

(* --- trend gate --- *)

module Trend = Rp_harness.Trend

let server_report ~rps ~misses =
  Printf.sprintf
    {|{"benchmark": "server-pipelined-get",
       "runs": [
         {"label": "event-loop-w1", "rps": %d, "misses": %d},
         {"label": "threaded", "rps": 50000, "misses": 0}
       ]}|}
    rps misses

let server_baseline = Trend.parse (server_report ~rps:40000 ~misses:0)
let server_rules = Trend.rules_for "server-pipelined-get"

let test_trend_parse_flatten () =
  let json = Trend.parse {|{"a": 1, "b": {"c": 2.5}, "arr": [3, {"label": "x", "v": 4}], "s": "skip", "t": true}|} in
  let flat = Trend.flatten json in
  Alcotest.(check (option (float 0.))) "top-level" (Some 1.)
    (List.assoc_opt "a" flat);
  Alcotest.(check (option (float 0.))) "nested" (Some 2.5)
    (List.assoc_opt "b.c" flat);
  Alcotest.(check (option (float 0.))) "array index" (Some 3.)
    (List.assoc_opt "arr.0" flat);
  Alcotest.(check (option (float 0.))) "labelled element" (Some 4.)
    (List.assoc_opt "arr.x.v" flat);
  Alcotest.(check (option (float 0.))) "bool as 0/1" (Some 1.)
    (List.assoc_opt "t" flat);
  Alcotest.(check (option (float 0.))) "strings skipped" None
    (List.assoc_opt "s" flat);
  (match Trend.parse "{broken" with
  | exception Trend.Parse_error _ -> ()
  | _ -> Alcotest.fail "garbage accepted")

let test_trend_gate_passes_healthy () =
  let fresh = Trend.parse (server_report ~rps:120000 ~misses:0) in
  Alcotest.(check int) "healthy run passes" 0
    (List.length (Trend.gate ~rules:server_rules ~baseline:server_baseline ~fresh));
  (* 20% under the floor is within the 25% budget. *)
  let fresh = Trend.parse (server_report ~rps:32000 ~misses:0) in
  Alcotest.(check int) "noise-level dip passes" 0
    (List.length (Trend.gate ~rules:server_rules ~baseline:server_baseline ~fresh))

let test_trend_gate_fails_regression () =
  (* Doctored report: throughput collapsed well past 25% under baseline. *)
  let fresh = Trend.parse (server_report ~rps:4000 ~misses:0) in
  let failures =
    Trend.gate ~rules:server_rules ~baseline:server_baseline ~fresh
  in
  Alcotest.(check int) "regression caught" 1 (List.length failures);
  let f = List.hd failures in
  Alcotest.(check string) "right metric" "runs.event-loop-w1.rps" f.Trend.f_metric;
  Alcotest.(check bool) "report renders" true
    (String.length (Trend.report_failures failures) > 0)

let test_trend_gate_misses_exact_zero () =
  (* A single miss fails, however good the throughput. *)
  let fresh = Trend.parse (server_report ~rps:500000 ~misses:1) in
  let failures =
    Trend.gate ~rules:server_rules ~baseline:server_baseline ~fresh
  in
  Alcotest.(check int) "miss caught" 1 (List.length failures);
  Alcotest.(check string) "right metric" "runs.event-loop-w1.misses"
    (List.hd failures).Trend.f_metric

let test_trend_gate_missing_metric () =
  (* A gated metric vanishing from the fresh report is itself a failure. *)
  let fresh =
    Trend.parse
      {|{"benchmark": "server-pipelined-get",
         "runs": [{"label": "threaded", "rps": 50000, "misses": 0}]}|}
  in
  let failures =
    Trend.gate ~rules:server_rules ~baseline:server_baseline ~fresh
  in
  Alcotest.(check bool) "missing run caught" true
    (List.exists
       (fun f -> f.Trend.f_metric = "runs.event-loop-w1.rps")
       failures)

let test_trend_gate_lower_better_and_exact () =
  let baseline =
    Trend.parse {|{"benchmark": "persist", "snapshot_mb_per_s": 10,
                   "replay_ops_per_s": 40000, "get_p99_ns_snapshot_on": 60000}|}
  in
  let rules = Trend.rules_for "persist" in
  let fresh_ok =
    Trend.parse {|{"benchmark": "persist", "snapshot_mb_per_s": 30,
                   "replay_ops_per_s": 120000, "get_p99_ns_snapshot_on": 8000}|}
  in
  Alcotest.(check int) "healthy persist passes" 0
    (List.length (Trend.gate ~rules ~baseline ~fresh:fresh_ok));
  (* Doctored: tail latency blew through the ceiling. *)
  let fresh_slow =
    Trend.parse {|{"benchmark": "persist", "snapshot_mb_per_s": 30,
                   "replay_ops_per_s": 120000, "get_p99_ns_snapshot_on": 90000}|}
  in
  Alcotest.(check string) "tail regression caught" "get_p99_ns_snapshot_on"
    (List.hd (Trend.gate ~rules ~baseline ~fresh:fresh_slow)).Trend.f_metric;
  (* Exact rule: smoke's deterministic hit count must not change at all. *)
  let smoke_base =
    Trend.parse {|{"benchmark": "smoke", "lookup_hits": 8192,
                   "store": {"trace_spans_total": 80}}|}
  in
  let smoke_rules = Trend.rules_for "smoke" in
  let smoke_bad =
    Trend.parse {|{"benchmark": "smoke", "lookup_hits": 8191,
                   "store": {"trace_spans_total": 900}}|}
  in
  Alcotest.(check string) "hit-count drift caught" "lookup_hits"
    (List.hd (Trend.gate ~rules:smoke_rules ~baseline:smoke_base ~fresh:smoke_bad))
      .Trend.f_metric

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "counts ops" `Quick test_runner_counts_ops;
          Alcotest.test_case "rejects empty" `Quick test_runner_rejects_empty;
          Alcotest.test_case "joins all before raising" `Quick
            test_runner_joins_all_before_raising;
          Alcotest.test_case "loop_batched" `Quick test_loop_batched;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary stats" `Quick test_stats_basics;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        ] );
      ( "series",
        [
          Alcotest.test_case "series ops" `Quick test_series;
          Alcotest.test_case "csv rendering" `Quick test_csv;
          Alcotest.test_case "csv file round trip" `Quick test_write_csv_roundtrip;
        ] );
      ( "report",
        [
          Alcotest.test_case "table alignment" `Quick test_print_table_alignment;
          Alcotest.test_case "series table" `Quick test_print_series_table;
          Alcotest.test_case "ascii chart" `Quick test_ascii_chart_renders;
          Alcotest.test_case "ascii chart empty" `Quick test_ascii_chart_empty;
        ] );
      ( "trend",
        [
          Alcotest.test_case "parse + flatten" `Quick test_trend_parse_flatten;
          Alcotest.test_case "healthy run passes" `Quick
            test_trend_gate_passes_healthy;
          Alcotest.test_case "doctored regression fails" `Quick
            test_trend_gate_fails_regression;
          Alcotest.test_case "misses are exact-zero" `Quick
            test_trend_gate_misses_exact_zero;
          Alcotest.test_case "vanished metric fails" `Quick
            test_trend_gate_missing_metric;
          Alcotest.test_case "lower-better and exact rules" `Quick
            test_trend_gate_lower_better_and_exact;
        ] );
    ]
