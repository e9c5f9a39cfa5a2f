(* Observability plane: striped counters, histograms, registry rendering,
   server stats round-trip, and the read-path overhead guard. *)

open Rp_obs

(* --- striped counters --- *)

let test_counter_domains () =
  let c = Counter.create () in
  let per_domain = 50_000 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Counter.incr c
            done))
  in
  Array.iter Domain.join domains;
  (* Writers have quiesced (joined), so the striped sum is exact. *)
  Alcotest.(check int) "exact sum" (4 * per_domain) (Counter.read c);
  Counter.add c 42;
  Alcotest.(check int) "add" ((4 * per_domain) + 42) (Counter.read c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.read c)

let test_counter_disabled () =
  let c = Counter.create () in
  set_enabled false;
  Fun.protect
    ~finally:(fun () -> set_enabled true)
    (fun () -> Counter.incr c);
  Alcotest.(check int) "disabled increments dropped" 0 (Counter.read c)

(* --- histograms --- *)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  (* 100 observations of 100 ... then one huge outlier. *)
  for _ = 1 to 100 do
    Histogram.observe h 100
  done;
  Histogram.observe h 1_000_000;
  let s = Histogram.snapshot h in
  Alcotest.(check int) "count" 101 s.Histogram.count;
  Alcotest.(check int) "sum" ((100 * 100) + 1_000_000) s.Histogram.sum;
  Alcotest.(check int) "max" 1_000_000 s.Histogram.max;
  (* Power-of-two buckets: a percentile is the upper bound of its bucket,
     so it is >= the true value and < 2x the true value. *)
  let p50 = Histogram.percentile s 0.5 in
  Alcotest.(check bool) "p50 lower bound" true (p50 >= 100);
  Alcotest.(check bool) "p50 upper bound" true (p50 < 200);
  let p99 = Histogram.percentile s 0.99 in
  Alcotest.(check bool) "p99 in the common bucket" true (p99 >= 100 && p99 < 200);
  let p100 = Histogram.percentile s 1.0 in
  Alcotest.(check bool) "p100 covers the outlier" true
    (p100 >= 1_000_000 && p100 < 2_000_000);
  Alcotest.(check int) "empty percentile" 0
    (Histogram.percentile (Histogram.snapshot (Histogram.create ())) 0.5)

let test_histogram_buckets () =
  Alcotest.(check int) "zero" 0 (Histogram.bucket_of_value 0);
  Alcotest.(check int) "negative clamps" 0 (Histogram.bucket_of_value (-5));
  Alcotest.(check int) "one" 1 (Histogram.bucket_of_value 1);
  Alcotest.(check int) "two" 2 (Histogram.bucket_of_value 2);
  Alcotest.(check int) "three" 2 (Histogram.bucket_of_value 3);
  (* 63-bit ints: max_int = 2^62 - 1 lands in bucket 62, whose inclusive
     upper bound is exactly max_int. *)
  Alcotest.(check int) "max_int bucket" 62 (Histogram.bucket_of_value max_int);
  Alcotest.(check int) "max_int covered" max_int
    (Histogram.upper_bound (Histogram.bucket_of_value max_int));
  (* Every value sits at or below its bucket's inclusive upper bound. *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "upper bound covers %d" v)
        true
        (Histogram.upper_bound (Histogram.bucket_of_value v) >= v))
    [ 0; 1; 7; 8; 1023; 1024; 123_456_789 ]

let test_histogram_domains () =
  let h = Histogram.create () in
  let per_domain = 10_000 in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Histogram.observe h (10 * (d + 1))
            done))
  in
  Array.iter Domain.join domains;
  let s = Histogram.snapshot h in
  Alcotest.(check int) "merged count" (4 * per_domain) s.Histogram.count;
  Alcotest.(check int) "merged sum"
    (per_domain * (10 + 20 + 30 + 40))
    s.Histogram.sum

(* --- registry rendering --- *)

let test_registry_stats_and_json () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"test counter" "widgets_total" in
  Counter.add c 7;
  Registry.gauge reg ~help:"test gauge" "level" (fun () -> 2.5);
  let h = Registry.histogram reg ~help:"test histogram" "latency_ns" in
  Histogram.observe h 1000;
  Alcotest.(check bool) "get-or-create shares" true
    (Registry.counter reg "widgets_total" == c);
  let stats = Registry.to_stats reg in
  Alcotest.(check string) "counter line" "7" (List.assoc "widgets_total" stats);
  Alcotest.(check string) "gauge line" "2.5" (List.assoc "level" stats);
  Alcotest.(check string) "histogram count line" "1"
    (List.assoc "latency_ns_count" stats);
  Alcotest.(check bool) "histogram p99 present" true
    (List.mem_assoc "latency_ns_p99" stats);
  Alcotest.(check (option (float 1e-9))) "value api" (Some 7.)
    (Registry.value reg "widgets_total");
  let json = Registry.to_json reg in
  Alcotest.(check bool) "json object" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}');
  Alcotest.(check bool) "json has counter" true
    (let sub = "\"widgets_total\":7" in
     let rec find i =
       i + String.length sub <= String.length json
       && (String.sub json i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  Alcotest.check_raises "invalid name rejected"
    (Invalid_argument "Rp_obs.Registry: invalid metric name bad name") (fun () ->
      ignore (Registry.counter reg "bad name"))

(* Prometheus text format 0.0.4: every line is a comment ("# HELP"/"# TYPE")
   or a sample: metric_name[{le="…"}] SP value. *)
let sample_line_ok line =
  let name_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  let len = String.length line in
  let i = ref 0 in
  while !i < len && name_char line.[!i] do
    incr i
  done;
  !i > 0
  && (not (match line.[0] with '0' .. '9' -> true | _ -> false))
  &&
  (* optional {le="..."} label set *)
  let i =
    if !i < len && line.[!i] = '{' then
      match String.index_from_opt line !i '}' with
      | Some close -> close + 1
      | None -> len + 1 (* unterminated: fail below *)
    else !i
  in
  i < len
  && line.[i] = ' '
  && float_of_string_opt (String.sub line (i + 1) (len - i - 1)) <> None

let test_prometheus_format () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"requests served" "requests_total" in
  Counter.add c 3;
  Registry.gauge reg ~help:"live items" "items" (fun () -> 12.0);
  let h = Registry.histogram reg ~help:"latency" "latency_ns" in
  List.iter (Histogram.observe h) [ 3; 100; 40_000 ];
  let text = Registry.to_prometheus reg in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "non-empty" true (List.length lines > 5);
  List.iter
    (fun line ->
      let comment =
        String.length line >= 7
        && (String.sub line 0 7 = "# HELP " || String.sub line 0 7 = "# TYPE ")
      in
      if not (comment || sample_line_ok line) then
        Alcotest.failf "bad exposition line: %S" line)
    lines;
  let has sub =
    let rec find i =
      i + String.length sub <= String.length text
      && (String.sub text i (String.length sub) = sub || find (i + 1))
    in
    find 0
  in
  Alcotest.(check bool) "TYPE counter" true (has "# TYPE requests_total counter");
  Alcotest.(check bool) "TYPE histogram" true (has "# TYPE latency_ns histogram");
  Alcotest.(check bool) "cumulative buckets" true (has "latency_ns_bucket{le=");
  Alcotest.(check bool) "+Inf bucket" true
    (has "latency_ns_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "histogram count" true (has "latency_ns_count 3")

(* --- stats round-trip through the server and client --- *)

let with_server f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-obs-test-%d.sock" (Unix.getpid ()))
  in
  let store = Memcached.Store.create ~backend:Memcached.Store.Rp () in
  let server = Memcached.Server.start ~store (Memcached.Server.Unix_socket path) in
  Fun.protect
    ~finally:(fun () -> Memcached.Server.stop server)
    (fun () -> f store (Memcached.Server.Unix_socket path))

let test_stats_roundtrip () =
  with_server (fun _store addr ->
      let client = Memcached.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Memcached.Client.close client)
        (fun () ->
          Alcotest.(check bool) "set" true
            (Memcached.Client.set client ~key:"k" ~data:"v" ());
          Alcotest.(check bool) "hit" true
            (Memcached.Client.get client "k" <> None);
          Alcotest.(check bool) "miss" true
            (Memcached.Client.get client "absent" = None);
          let stats = Memcached.Client.stats client in
          Alcotest.(check string) "backend" "rp" (List.assoc "backend" stats);
          Alcotest.(check string) "get_hits" "1" (List.assoc "get_hits" stats);
          Alcotest.(check string) "get_misses" "1" (List.assoc "get_misses" stats);
          Alcotest.(check string) "cmd_set" "1" (List.assoc "cmd_set" stats);
          Alcotest.(check string) "curr_items" "1" (List.assoc "curr_items" stats);
          Alcotest.(check bool) "accepted connection counted" true
            (int_of_string (List.assoc "server_connections_accepted_total" stats)
            >= 1);
          let rp = Memcached.Client.stats ~arg:"rp" client in
          Alcotest.(check bool) "rp stats carry table lookups" true
            (int_of_string (List.assoc "rp_ht_lookups_total" rp) >= 2);
          Alcotest.(check bool) "rp stats carry rcu counters" true
            (List.mem_assoc "rcu_grace_periods_total" rp);
          (* Write-side sharding instruments: the SET above took a stripe. *)
          Alcotest.(check bool) "stripe acquisitions counted" true
            (int_of_string (List.assoc "rp_ht_stripe_acquisitions_total" rp)
            >= 1);
          Alcotest.(check bool) "stripe count exported" true
            (int_of_string (List.assoc "rp_ht_stripes" rp) >= 2);
          Alcotest.(check bool) "contention counter exported" true
            (List.mem_assoc "rp_ht_stripe_contended_total" rp);
          Alcotest.(check bool) "lazy-split counter exported" true
            (List.mem_assoc "rp_ht_lazy_splits_total" rp);
          Alcotest.(check bool) "rp stats exclude store counters" false
            (List.mem_assoc "cmd_get" rp)))

let test_metrics_http () =
  with_server (fun store _addr ->
      ignore (Memcached.Store.set store ~key:"k" ~flags:0 ~exptime:0 ~data:"v");
      let endpoint =
        Memcached.Metrics_http.start ~registry:(Memcached.Store.registry store)
          ~heat:(fun n -> Memcached.Store.heat_json ?n store)
          0
      in
      Fun.protect
        ~finally:(fun () -> Memcached.Metrics_http.stop endpoint)
        (fun () ->
          let fetch path =
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd
              (Unix.ADDR_INET
                 (Unix.inet_addr_loopback, Memcached.Metrics_http.port endpoint));
            let out = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
            ignore (Unix.write_substring fd out 0 (String.length out));
            let buf = Buffer.create 4096 in
            let chunk = Bytes.create 4096 in
            let rec drain () =
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  drain ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
            in
            drain ();
            Unix.close fd;
            Buffer.contents buf
          in
          let has body sub =
            let rec find i =
              i + String.length sub <= String.length body
              && (String.sub body i (String.length sub) = sub || find (i + 1))
            in
            find 0
          in
          let metrics = fetch "/metrics" in
          Alcotest.(check bool) "/metrics is 200" true
            (has metrics "HTTP/1.0 200 OK");
          Alcotest.(check bool) "/metrics exposition content type" true
            (has metrics "text/plain; version=0.0.4");
          Alcotest.(check bool) "store counter exposed" true
            (has metrics "# TYPE cmd_set counter");
          Alcotest.(check bool) "table histogram exposed" true
            (has metrics "# TYPE rp_ht_resize_ns histogram");
          (* Each endpoint routes to its own representation and
             Content-Type; anything else is a 404, not a default page. *)
          let root = fetch "/" in
          Alcotest.(check bool) "/ aliases /metrics" true
            (has root "text/plain; version=0.0.4");
          let json = fetch "/json" in
          Alcotest.(check bool) "/json is 200" true (has json "HTTP/1.0 200 OK");
          Alcotest.(check bool) "/json content type" true
            (has json "Content-Type: application/json");
          Alcotest.(check bool) "/json carries the registry" true
            (has json "\"cmd_set\"");
          let trace = fetch "/trace" in
          Alcotest.(check bool) "/trace is 200" true
            (has trace "HTTP/1.0 200 OK");
          Alcotest.(check bool) "/trace content type" true
            (has trace "Content-Type: application/json");
          Alcotest.(check bool) "/trace is a perfetto document" true
            (has trace "\"traceEvents\"");
          let heat = fetch "/heat" in
          Alcotest.(check bool) "/heat is 200" true (has heat "HTTP/1.0 200 OK");
          Alcotest.(check bool) "/heat content type" true
            (has heat "Content-Type: application/json");
          Alcotest.(check bool) "/heat is the insight document" true
            (has heat "\"heat_enabled\"");
          let heat_n = fetch "/heat?n=1" in
          Alcotest.(check bool) "/heat?n=1 is 200" true
            (has heat_n "HTTP/1.0 200 OK");
          (* A malformed query is the client's bug: answer 400, never a
             500 or a silently wrong document. *)
          let bad = fetch "/heat?n=junk" in
          Alcotest.(check bool) "/heat?n=junk is 400" true
            (has bad "HTTP/1.0 400 Bad Request");
          let bad_key = fetch "/heat?depth=3" in
          Alcotest.(check bool) "/heat unknown param is 400" true
            (has bad_key "HTTP/1.0 400 Bad Request");
          let missing = fetch "/nope" in
          Alcotest.(check bool) "unknown path is 404" true
            (has missing "HTTP/1.0 404 Not Found");
          Alcotest.(check bool) "404 names the path" true
            (has missing "no such endpoint: /nope")))

(* --- read-path overhead guard --- *)

let test_read_overhead () =
  let table =
    Rp_ht.create ~initial_size:4096 ~auto_resize:false
      ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  let entries = 4096 in
  for i = 0 to entries - 1 do
    Rp_ht.insert table i i
  done;
  let iters = 200_000 in
  let time_lookups () =
    let start = Unix.gettimeofday () in
    for i = 0 to iters - 1 do
      ignore (Rp_ht.find table (i land (entries - 1)))
    done;
    Unix.gettimeofday () -. start
  in
  (* Alternate enabled/disabled trials and keep the minimum of each side:
     alternation cancels drift (frequency scaling, cache warm-up) that
     would bias whichever side ran last, and the minimum is the robust
     estimator of true cost under scheduler noise. The guard is the
     issue's bound: instrumented read path within 15% of the
     kill-switched one. *)
  ignore (time_lookups ());
  (* warm up *)
  let instrumented = ref infinity and uninstrumented = ref infinity in
  Fun.protect
    ~finally:(fun () -> set_enabled true)
    (fun () ->
      for _ = 1 to 7 do
        set_enabled true;
        instrumented := Float.min !instrumented (time_lookups ());
        set_enabled false;
        uninstrumented := Float.min !uninstrumented (time_lookups ())
      done);
  let instrumented = !instrumented and uninstrumented = !uninstrumented in
  let ratio = instrumented /. uninstrumented in
  Printf.printf "read-path overhead: %.0f vs %.0f ns/1k (ratio %.3f)\n%!"
    (instrumented *. 1e9 /. float_of_int iters *. 1e3)
    (uninstrumented *. 1e9 /. float_of_int iters *. 1e3)
    ratio;
  Alcotest.(check bool)
    (Printf.sprintf "instrumented/uninstrumented = %.3f <= 1.15" ratio)
    true (ratio <= 1.15)

let () =
  Alcotest.run "rp_obs"
    [
      ( "counters",
        [
          Alcotest.test_case "4-domain exact sum" `Quick test_counter_domains;
          Alcotest.test_case "kill switch" `Quick test_counter_disabled;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "percentile bounds" `Quick test_histogram_percentiles;
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "4-domain merge" `Quick test_histogram_domains;
        ] );
      ( "registry",
        [
          Alcotest.test_case "stats and json" `Quick test_registry_stats_and_json;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_format;
        ] );
      ( "integration",
        [
          Alcotest.test_case "stats round-trip" `Quick test_stats_roundtrip;
          Alcotest.test_case "metrics http endpoint" `Quick test_metrics_http;
          Alcotest.test_case "read-path overhead" `Slow test_read_overhead;
        ] );
    ]
