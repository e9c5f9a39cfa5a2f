(* The workload-insight plane: Space-Saving sketch correctness on a
   Zipfian stream, torn-entry safety under concurrent multi-domain
   recording, the stats-reset contract, full exposition round-trips,
   and the hot-path overhead guard for a heat-enabled store. *)

let key = Rp_workload.Keygen.string_key

(* --- Space-Saving correctness on a Zipfian stream ------------------ *)

(* Feed a deterministic Zipf(0.99) stream through one sketch instance
   and compare against exact counts: the reported estimates must honor
   the Space-Saving bounds (count is an overestimate, count - err a
   lower bound, err at most N/k), and the hottest key of the stream
   must surface as the merged top-1. *)
let test_sketch_zipfian () =
  let n = 200_000 and keyspace = 10_000 and k = 64 in
  let sketch = Rp_heat.Sketch.create ~k in
  let exact = Hashtbl.create keyspace in
  let keygen =
    Rp_workload.Keygen.create ~dist:(Rp_workload.Keygen.Zipfian 0.99)
      ~keyspace ~seed:11 ~worker:0 ()
  in
  for _ = 1 to n do
    let s = key (Rp_workload.Keygen.next_key keygen) in
    Rp_heat.Sketch.record sketch s;
    Hashtbl.replace exact s (1 + Option.value ~default:0 (Hashtbl.find_opt exact s))
  done;
  Alcotest.(check int) "stream length" n (Rp_heat.Sketch.total sketch);
  let top = Rp_heat.Sketch.top sketch in
  Alcotest.(check int) "k entries tracked" k (List.length top);
  let true_count s = Option.value ~default:0 (Hashtbl.find_opt exact s) in
  List.iter
    (fun (e : Rp_heat.Sketch.entry) ->
      let t = true_count e.key in
      if e.count < t then
        Alcotest.failf "%s: estimate %d below true count %d" e.key e.count t;
      if e.count - e.err > t then
        Alcotest.failf "%s: lower bound %d above true count %d" e.key
          (e.count - e.err) t;
      if e.err > n / k then
        Alcotest.failf "%s: err %d exceeds N/k = %d" e.key e.err (n / k))
    top;
  (* Zipf rank 0 is the stream's true argmax by a wide margin; it must
     be the sketch's top-1 and, having entered the sketch early, carry
     a tight (near-zero) error bound. *)
  let hottest =
    Hashtbl.fold
      (fun s c (bs, bc) -> if c > bc then (s, c) else (bs, bc))
      exact ("", 0)
  in
  let top1 = List.hd top in
  Alcotest.(check string) "top-1 is the true argmax" (fst hottest) top1.key;
  Alcotest.(check string) "top-1 is Zipf rank 0" (key 0) top1.key;
  Alcotest.(check int) "top-1 count is exact" (snd hottest)
    (top1.count - top1.err);
  (* Sorted count-descending. *)
  ignore
    (List.fold_left
       (fun prev (e : Rp_heat.Sketch.entry) ->
         if e.count > prev then Alcotest.failf "top not sorted";
         e.count)
       max_int top);
  (* Reset forgets everything. *)
  Rp_heat.Sketch.reset sketch;
  Alcotest.(check int) "reset clears the stream" 0 (Rp_heat.Sketch.total sketch);
  Alcotest.(check int) "reset clears the entries" 0
    (List.length (Rp_heat.Sketch.top sketch))

(* --- concurrent multi-domain recording ----------------------------- *)

(* Four recorder domains hammer disjoint key sets (each set smaller
   than k, so nothing is ever evicted and the merged counts must come
   out exact) while a reader merges continuously. Any torn entry —
   a key from a half-written replacement, a negative count — fails
   the reader's well-formedness check. *)
let test_sketch_concurrent () =
  let k = 64 and domains = 4 and distinct = 16 and per_key = 5_000 in
  let sketch = Rp_heat.Sketch.create ~k in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let polls = ref 0 in
        while not (Atomic.get stop) do
          List.iter
            (fun (e : Rp_heat.Sketch.entry) ->
              if String.length e.key = 0 then failwith "torn: empty key";
              if e.count <= 0 then failwith "torn: non-positive count";
              if e.err < 0 then failwith "torn: negative err")
            (Rp_heat.Sketch.top sketch);
          incr polls
        done;
        !polls)
  in
  let recorders =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to distinct - 1 do
              for _ = 1 to per_key do
                Rp_heat.Sketch.record sketch (Printf.sprintf "d%d:%04d" d i)
              done
            done))
  in
  List.iter Domain.join recorders;
  Atomic.set stop true;
  let polls = Domain.join reader in
  Alcotest.(check bool) "reader merged while recording" true (polls > 0);
  (* Quiesced: every key exact, err 0 (no sketch ever overflowed). *)
  Alcotest.(check int) "merged stream length" (domains * distinct * per_key)
    (Rp_heat.Sketch.total sketch);
  let top = Rp_heat.Sketch.top sketch in
  Alcotest.(check int) "all keys tracked" (domains * distinct)
    (List.length top);
  List.iter
    (fun (e : Rp_heat.Sketch.entry) ->
      Alcotest.(check int) (e.key ^ " exact") per_key e.count;
      Alcotest.(check int) (e.key ^ " err") 0 e.err)
    top

(* --- store wiring and exposition round-trips ----------------------- *)

let handle store req =
  match Memcached.Server.handle store req with
  | Some r -> r
  | None -> Alcotest.fail "no response"

let test_store_exposition () =
  let store =
    (* sample 1: every operation recorded, so counts are exact *)
    Memcached.Store.create ~backend:Memcached.Store.Rp ~heat_topk:16
      ~heat_sample:1 ()
  in
  for i = 0 to 63 do
    ignore
      (Memcached.Store.set store ~key:(key i) ~flags:0 ~exptime:0 ~data:"v")
  done;
  (* A skewed read mix: key 0 dominates, one miss, one delete. *)
  for _ = 1 to 50 do
    ignore (Memcached.Store.get store (key 0))
  done;
  ignore (Memcached.Store.get store (key 1));
  ignore (Memcached.Store.get store "absent");
  ignore (Memcached.Store.delete store (key 63));
  (* stats heat (text plane). *)
  let kvs =
    match handle store (Memcached.Protocol.Stats (Some "heat")) with
    | Memcached.Protocol.Stats_reply kvs -> kvs
    | _ -> Alcotest.fail "stats heat: not a stats reply"
  in
  Alcotest.(check (option string)) "plane enabled" (Some "1")
    (List.assoc_opt "heat_enabled" kvs);
  Alcotest.(check (option string)) "hottest hit key" (Some (key 0))
    (List.assoc_opt "heat_top_hits_0_key" kvs);
  Alcotest.(check (option string)) "hottest hit count" (Some "50")
    (List.assoc_opt "heat_top_hits_0_count" kvs);
  Alcotest.(check (option string)) "hottest miss" (Some "absent")
    (List.assoc_opt "heat_top_misses_0_key" kvs);
  Alcotest.(check bool) "mutations tracked" true
    (List.mem_assoc "heat_top_mutations_0_key" kvs);
  Alcotest.(check bool) "size histogram exported" true
    (List.mem_assoc "heat_get_value_bytes_count" kvs);
  Alcotest.(check bool) "stripe heatmap exported" true
    (List.exists
       (fun (k, _) ->
         String.length k >= 24 && String.sub k 0 24 = "heat_stripe_acquisitions")
       kvs);
  (* The default section must not leak heat internals, and vice versa
     the plane must surface in Prometheus and JSON. *)
  let default = Memcached.Store.stats store in
  Alcotest.(check bool) "default stats exclude heat" false
    (List.exists (fun (k, _) -> String.length k >= 5 && String.sub k 0 5 = "heat_")
       default);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn > 0 && go 0
  in
  let prom = Rp_obs.Registry.to_prometheus (Memcached.Store.registry store) in
  Alcotest.(check bool) "prometheus labeled top-k gauge" true
    (contains prom (Printf.sprintf "heat_topk_hits{key=%S} 50" (key 0)));
  Alcotest.(check bool) "prometheus tracked counter" true
    (contains prom "# TYPE heat_hits_tracked_total counter");
  (* heat dump (wire plane): one JSON document, top-n bounded. *)
  let json =
    match handle store (Memcached.Protocol.Heat_dump (Some 1)) with
    | Memcached.Protocol.Trace_json j -> j
    | _ -> Alcotest.fail "heat dump: not a json reply"
  in
  Alcotest.(check bool) "dump is a json object" true
    (String.length json > 0 && json.[0] = '{');
  Alcotest.(check bool) "dump carries the hot key" true
    (contains json (key 0));
  Alcotest.(check bool) "dump respects n" false (contains json (key 5));
  Alcotest.(check bool) "json endpoint document" true
    (contains (Memcached.Store.heat_json store) "\"heat_enabled\":true");
  (* The wire round-trip of the new verb itself. *)
  (match
     Memcached.Protocol.Parser.next
       (let p = Memcached.Protocol.Parser.create () in
        Memcached.Protocol.Parser.feed p
          (Memcached.Protocol.encode_request
             (Memcached.Protocol.Heat_dump (Some 5)));
        p)
   with
  | Some (Ok (Memcached.Protocol.Heat_dump (Some 5))) -> ()
  | _ -> Alcotest.fail "heat dump 5 did not round-trip");
  (* A store without the plane answers disabled everywhere. *)
  let off = Memcached.Store.create ~backend:Memcached.Store.Rp () in
  Alcotest.(check (option string)) "plane off" (Some "0")
    (List.assoc_opt "heat_enabled"
       (Option.get (Memcached.Store.stats_section off "heat")));
  Alcotest.(check string) "json off" "{\"heat_enabled\":false}"
    (Memcached.Store.heat_json off)

(* --- stats reset --------------------------------------------------- *)

let test_stats_reset () =
  let store =
    Memcached.Store.create ~backend:Memcached.Store.Rp ~heat_topk:8
      ~heat_sample:1 ()
  in
  ignore (Memcached.Store.set store ~key:"hot" ~flags:0 ~exptime:0 ~data:"vvvv");
  for _ = 1 to 10 do
    ignore (Memcached.Store.get store "hot")
  done;
  let stat_of kvs name = List.assoc_opt name kvs in
  let before = Option.get (Memcached.Store.stats_section store "heat") in
  Alcotest.(check (option string)) "sketch populated" (Some "hot")
    (stat_of before "heat_top_hits_0_key");
  Alcotest.(check (option string)) "size histogram populated" (Some "10")
    (stat_of before "heat_get_value_bytes_count");
  let cmd_get_before =
    stat_of (Memcached.Store.stats store) "cmd_get"
  in
  (* [stats reset] over the wire answers END (an empty stats reply). *)
  (match handle store (Memcached.Protocol.Stats (Some "reset")) with
  | Memcached.Protocol.Stats_reply [] -> ()
  | _ -> Alcotest.fail "stats reset: not an empty stats reply");
  let after = Option.get (Memcached.Store.stats_section store "heat") in
  Alcotest.(check (option string)) "sketch cleared" None
    (stat_of after "heat_top_hits_0_key");
  Alcotest.(check (option string)) "size histogram cleared" (Some "0")
    (stat_of after "heat_get_value_bytes_count");
  (* The non-resettable counters survive — a reset must never destroy
     the monotonic series scrapers rate() over. *)
  Alcotest.(check (option string)) "cmd_get survives reset" cmd_get_before
    (stat_of (Memcached.Store.stats store) "cmd_get");
  Alcotest.(check bool) "cmd_get was non-zero" true (cmd_get_before <> None)

(* --- hot-path cost, exactly ------------------------------------------ *)

(* The plane's read-path obligation without a clock (DESIGN §17.4): a
   GET hit on a store with the heat plane on allocates what the same GET
   allocates with it off, plus 2 words per sampled hit, once the sketch
   tracks the keys — an unsampled hit adds one branch on the stripe
   count the store already read, a sampled one updates the sketch in
   place. *)
let test_heat_get_allocation () =
  let make ~heat_topk =
    let store =
      Memcached.Store.create ~backend:Memcached.Store.Rp ~initial_size:256 ~heat_topk
        ~heat_sample:4 ()
    in
    for i = 0 to 31 do
      ignore (Memcached.Store.set store ~key:(key i) ~flags:0 ~exptime:0 ~data:"v")
    done;
    store
  in
  let sampled store =
    match Memcached.Store.heat store with
    | None -> 0
    | Some h -> Rp_heat.Sketch.total (Rp_heat.hits h)
  in
  let words store =
    let gets () =
      for i = 0 to 1023 do
        ignore (Memcached.Store.get store (key (i land 31)))
      done
    in
    gets ();
    let s0 = sampled store and w0 = Gc.minor_words () in
    gets ();
    (Gc.minor_words () -. w0, sampled store - s0)
  in
  let off, _ = words (make ~heat_topk:0) and on, sampled = words (make ~heat_topk:64) in
  Printf.printf "1024 GET hits: %.0f minor words heat off, %.0f heat on, %d sampled\n" off on
    sampled;
  Alcotest.(check bool) "some hits sampled" true (sampled > 0);
  Alcotest.(check (float 0.)) "heat-on words = heat-off words + 2 per sampled hit"
    (off +. (2. *. float_of_int sampled))
    on

(* --- hot-path overhead guard --------------------------------------- *)

(* GET cost with --heat-topk 64 on vs off, same keys, same store shape:
   the sketch tax must stay within the same 1.15x envelope the other
   observability planes honor (mirrors test_obs's guard: min over
   alternating rounds so both sides see the same scheduler weather). *)
let test_heat_overhead () =
  let keyspace = 4096 in
  let make ~heat_topk =
    let store =
      Memcached.Store.create ~backend:Memcached.Store.Rp ~initial_size:4096
        ~heat_topk ()
    in
    for i = 0 to keyspace - 1 do
      ignore
        (Memcached.Store.set store ~key:(key i) ~flags:0 ~exptime:0 ~data:"v")
    done;
    store
  in
  let store_off = make ~heat_topk:0 in
  let store_on = make ~heat_topk:64 in
  let zkeys =
    let kg =
      Rp_workload.Keygen.create ~dist:(Rp_workload.Keygen.Zipfian 0.99)
        ~keyspace ~seed:3 ~worker:0 ()
    in
    Array.init 4096 (fun _ -> key (Rp_workload.Keygen.next_key kg))
  in
  let iters = 200_000 in
  let time store =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for i = 0 to iters - 1 do
      ignore (Memcached.Store.get store zkeys.(i land 4095))
    done;
    Unix.gettimeofday () -. t0
  in
  (* Warm both paths once. *)
  ignore (time store_off);
  ignore (time store_on);
  let best_off = ref infinity and best_on = ref infinity in
  let rounds () =
    for _ = 1 to 7 do
      best_off := Float.min !best_off (time store_off);
      best_on := Float.min !best_on (time store_on)
    done
  in
  rounds ();
  (* One re-measure on a blown budget (as the bench lane does): on this
     single-core box a first miss is usually scheduler weather; a real
     regression fails both passes. *)
  if !best_on /. !best_off > 1.15 then rounds ();
  let ratio = !best_on /. !best_off in
  Printf.printf "heat-on GET cost: %.2fx (off %.0f ns, on %.0f ns)\n%!" ratio
    (!best_off /. float_of_int iters *. 1e9)
    (!best_on /. float_of_int iters *. 1e9);
  if ratio > 1.15 then
    Alcotest.failf "heat-enabled GETs cost %.2fx the bare path (budget 1.15x)"
      ratio;
  (* The measured traffic must show up in the sketch: with the default
     head sampling the scaled hit total covers at least one full round
     of the 8 the guard ran. *)
  match Memcached.Store.heat store_on with
  | None -> Alcotest.fail "store_on lost its heat plane"
  | Some h ->
      let tracked =
        Rp_heat.Sketch.total (Rp_heat.hits h) * Rp_heat.sample_every h
      in
      Alcotest.(check bool) "sampled GETs cover the measured traffic" true
        (tracked >= iters)

let () =
  Alcotest.run "rp_heat"
    [
      ( "sketch",
        [
          Alcotest.test_case "zipfian stream bounds" `Quick
            test_sketch_zipfian;
          Alcotest.test_case "concurrent recording" `Quick
            test_sketch_concurrent;
        ] );
      ( "store",
        [
          Alcotest.test_case "exposition round-trips" `Quick
            test_store_exposition;
          Alcotest.test_case "stats reset" `Quick test_stats_reset;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "heat-on GET allocation" `Quick test_heat_get_allocation;
          Alcotest.test_case "heat-on GET guard" `Slow test_heat_overhead;
        ] );
    ]
