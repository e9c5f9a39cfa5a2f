(* The flight recorder: concurrent emission safety, sampler determinism,
   tail-trigger retention, Perfetto export schema, end-to-end span
   coverage across all three planes, and the fully-sampled overhead
   guard. *)

module Trend = Rp_harness.Trend

(* --- helpers ----------------------------------------------------------- *)

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
        (Printf.sprintf "rp-trace-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    dir

(* Every test mutates the process-global recorder; bracket it so a
   failure in one test cannot poison the next. *)
let with_recorder ?(sample = 1024) ?(slow_ms = 100.) f =
  Rp_trace.reset ();
  Rp_trace.reset_sampler ();
  Rp_trace.configure ~sample ~slow_ms ();
  Fun.protect
    ~finally:(fun () ->
      Rp_trace.set_enabled true;
      Rp_trace.configure ~sample:1024 ~slow_ms:100. ();
      Rp_trace.reset ();
      Rp_trace.reset_sampler ())
    f

let stat_int key =
  int_of_string (List.assoc key (Rp_trace.stats_kv ()))

let has_name events n = List.exists (fun (e : Rp_trace.event) -> e.name = n) events

(* --- concurrent multi-domain emission ---------------------------------- *)

(* Four domains hammer their own rings past wrap-around; after join the
   snapshot must decode with zero torn records (each surviving slot cell
   was fully overwritten, never half-written) and per-domain volume
   bounded by the ring. *)
let test_concurrent_emission () =
  with_recorder (fun () ->
      let n_domains = 4 and spans_per_domain = 3000 in
      let kinds =
        Array.init n_domains (fun i ->
            Rp_trace.intern (Printf.sprintf "test.domain%d" i))
      in
      let worker i () =
        let k = kinds.(i) in
        for j = 1 to spans_per_domain do
          let s = Rp_trace.span_begin ~arg:j k in
          if j mod 7 = 0 then Rp_trace.instant ~arg:j k;
          Rp_trace.span_end ~arg:j k s
        done
      in
      let domains = Array.init n_domains (fun i -> Domain.spawn (worker i)) in
      Array.iter Domain.join domains;
      let events, torn = Rp_trace.snapshot () in
      Alcotest.(check int) "no torn records after join" 0 torn;
      Alcotest.(check bool) "events recorded" true (events <> []);
      (* Volume per domain is bounded by the ring: overwritten history is
         dropped, not accumulated. *)
      let buckets = Hashtbl.create 8 in
      List.iter
        (fun (e : Rp_trace.event) ->
          Hashtbl.replace buckets e.domain
            (1 + Option.value ~default:0 (Hashtbl.find_opt buckets e.domain)))
        events;
      Hashtbl.iter
        (fun _dom count ->
          Alcotest.(check bool) "per-domain volume bounded by ring" true
            (count <= Rp_trace.buffer_size ()))
        buckets;
      (* Each domain emitted B/E in lockstep, so a ring window can split
         at most one pair: begins and ends per domain differ by <= 1. *)
      let count dom ph =
        List.length
          (List.filter
             (fun (e : Rp_trace.event) -> e.domain = dom && e.phase = ph)
             events)
      in
      Hashtbl.iter
        (fun dom _ ->
          let b = count dom 0 and e = count dom 1 in
          Alcotest.(check bool)
            (Printf.sprintf "domain %d B/E balance (%d vs %d)" dom b e)
            true
            (abs (b - e) <= 1))
        buckets;
      (* Decoded names must all be interned ones, never garbage. *)
      List.iter
        (fun (e : Rp_trace.event) ->
          Alcotest.(check bool) "decoded name is interned" true (e.name <> "?");
          Alcotest.(check bool) "phase in range" true
            (e.phase >= 0 && e.phase <= 2))
        events)

(* --- head-sampler determinism ------------------------------------------ *)

let sampled_indices ~seed ~sample ~n =
  Rp_trace.reset ();
  Rp_trace.reset_sampler ~seed ();
  Rp_trace.configure ~sample ();
  let k = Rp_trace.intern "test.req" in
  let out = ref [] in
  for i = 0 to n - 1 do
    Rp_trace.request_begin ~arg:i k;
    if Rp_trace.sampling_now () then out := i :: !out;
    Rp_trace.request_end ()
  done;
  List.rev !out

let test_sampler_determinism () =
  with_recorder (fun () ->
      let expected seed = List.filter (fun i -> (seed + i) mod 4 = 0) (List.init 100 Fun.id) in
      let run seed = sampled_indices ~seed ~sample:4 ~n:100 in
      Alcotest.(check (list int)) "seed 0 samples every 4th from 0" (expected 0) (run 0);
      Alcotest.(check (list int)) "seed 0 is reproducible" (run 0) (run 0);
      Alcotest.(check (list int)) "seed 3 shifts the phase" (expected 3) (run 3);
      (* Counters agree with the sampled set. *)
      ignore (run 0);
      Alcotest.(check int) "trace_requests" 100 (stat_int "trace_requests");
      Alcotest.(check int) "trace_requests_sampled" 25
        (stat_int "trace_requests_sampled");
      (* sample=1 head-samples everything. *)
      Alcotest.(check int) "sample=1 samples all" 10
        (List.length (sampled_indices ~seed:0 ~sample:1 ~n:10)))

(* --- tail-trigger retention -------------------------------------------- *)

(* A request that is never head-sampled must still be retained when a
   failpoint-injected stall blows the latency budget: the request tier
   records regardless of sampling, and request_end copies the window
   into the slow log. The stall lives inside the request (the op-log
   append a SET performs), not at connection altitude. *)
let test_tail_trigger () =
  with_recorder ~sample:1_000_000 ~slow_ms:5. (fun () ->
      (* Seed past 0: a freshly reset sampler head-samples request 0
         (count 0 mod N = 0), and this test must show retention works
         with the head sampler never firing. *)
      Rp_trace.reset_sampler ~seed:1 ();
      let dir = fresh_dir () in
      let store = Memcached.Store.create ~backend:Memcached.Store.Rp () in
      let persist = Memcached.Persist.attach ~dir store in
      let path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "rp-trace-test-%d.sock" (Unix.getpid ()))
      in
      let server =
        Memcached.Server.start ~store (Memcached.Server.Unix_socket path)
      in
      Fun.protect
        ~finally:(fun () ->
          Rp_fault.reset ();
          Memcached.Server.stop server;
          Memcached.Persist.stop persist;
          rm_rf dir)
        (fun () ->
          let client =
            Memcached.Client.connect (Memcached.Server.Unix_socket path)
          in
          Fun.protect
            ~finally:(fun () -> Memcached.Client.close client)
            (fun () ->
              (* Warm request, no stall: under budget, nothing retained
                 (scheduler noise aside — asserted via the slow entry's
                 duration below, not emptiness here). *)
              Alcotest.(check bool) "warm set" true
                (Memcached.Client.set client ~key:"fast" ~data:"v" ());
              Rp_fault.arm "persist.log.append" ~trigger:Rp_fault.Always
                ~action:(Rp_fault.Delay 0.02);
              Alcotest.(check bool) "stalled set" true
                (Memcached.Client.set client ~key:"slow" ~data:"v" ());
              Rp_fault.reset ();
              (* The server acknowledges before closing the request
                 context, so retention can land a beat after the client
                 returns: poll briefly — for the stalled request itself,
                 since parallel load can slow the warm one past the
                 budget and get it retained first. *)
              let stall_retained () =
                List.exists
                  (fun (e : Rp_trace.slow_entry) -> e.slow_dur_ns >= 20_000_000)
                  (Rp_trace.slow_snapshot ())
              in
              let deadline = Unix.gettimeofday () +. 2.0 in
              while
                (not (stall_retained ())) && Unix.gettimeofday () < deadline
              do
                Thread.delay 0.005
              done;
              let slow = Rp_trace.slow_snapshot () in
              Alcotest.(check bool) "slow log non-empty" true (slow <> []);
              let entry =
                List.fold_left
                  (fun (best : Rp_trace.slow_entry) (e : Rp_trace.slow_entry) ->
                    if e.slow_dur_ns > best.slow_dur_ns then e else best)
                  (List.hd slow) (List.tl slow)
              in
              Alcotest.(check bool) "retained request carries the stall" true
                (entry.slow_dur_ns >= 20_000_000);
              Alcotest.(check bool) "window has events" true
                (entry.slow_events <> []);
              Alcotest.(check bool) "window has the request span" true
                (List.exists
                   (fun (e : Rp_trace.event) -> e.name = "req.text")
                   entry.slow_events);
              (* Purely a tail retention: the head sampler never fired. *)
              Alcotest.(check int) "never head-sampled" 0
                (stat_int "trace_requests_sampled");
              Alcotest.(check bool) "retention counted" true
                (stat_int "trace_slow_retained" >= 1))))

(* --- Perfetto export schema -------------------------------------------- *)

let test_perfetto_schema () =
  with_recorder ~sample:1 (fun () ->
      let k_req = Rp_trace.intern "test.req" in
      let k_op = Rp_trace.intern "test.op" in
      let k_ctl = Rp_trace.intern "test.control" in
      Rp_trace.request_begin ~arg:7 k_req;
      let s = Rp_trace.span_begin_sampled ~arg:1 k_op in
      Rp_trace.instant_sampled k_op;
      Rp_trace.span_end_sampled k_op s;
      Rp_trace.request_end ();
      ignore (Rp_trace.with_span k_ctl (fun () -> 42));
      let json = Rp_trace.export_json () in
      let doc = Trend.parse json in
      let events =
        match Trend.member "traceEvents" doc with
        | Some (Trend.List l) -> l
        | _ -> Alcotest.fail "traceEvents missing or not a list"
      in
      (* request B/E, one detail X (begin+end merged), one instant, and
         the control span's B/E. *)
      Alcotest.(check bool) "at least the 6 emitted events" true
        (List.length events >= 6);
      (match Trend.member "otherData" doc with
      | Some o ->
          Alcotest.(check bool) "torn count exported as 0" true
            (Trend.member "torn" o = Some (Trend.Num 0.))
      | None -> Alcotest.fail "otherData missing");
      let str_field name ev =
        match Trend.member name ev with
        | Some (Trend.Str s) -> s
        | _ -> Alcotest.fail (Printf.sprintf "event field %s not a string" name)
      in
      let num_field name ev =
        match Trend.member name ev with
        | Some (Trend.Num n) -> n
        | _ -> Alcotest.fail (Printf.sprintf "event field %s not a number" name)
      in
      let last_ts = ref neg_infinity in
      let depth = Hashtbl.create 4 in
      List.iter
        (fun ev ->
          let ph = str_field "ph" ev in
          Alcotest.(check bool) "ph is B/E/X/i" true
            (ph = "B" || ph = "E" || ph = "X" || ph = "i");
          if ph = "X" then
            Alcotest.(check bool) "X event carries a dur" true
              (num_field "dur" ev >= 0.);
          Alcotest.(check bool) "name non-empty" true (str_field "name" ev <> "");
          Alcotest.(check bool) "pid present" true (num_field "pid" ev = 1.);
          let ts = num_field "ts" ev in
          Alcotest.(check bool) "ts monotone non-decreasing" true
            (ts >= !last_ts);
          last_ts := ts;
          let tid = num_field "tid" ev in
          let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
          (match ph with
          | "B" -> Hashtbl.replace depth tid (d + 1)
          | "E" ->
              Alcotest.(check bool) "E never underflows its tid's stack" true
                (d > 0);
              Hashtbl.replace depth tid (d - 1)
          | _ -> ()))
        events;
      Hashtbl.iter
        (fun tid d ->
          Alcotest.(check int)
            (Printf.sprintf "tid %g B/E pairs matched" tid)
            0 d)
        depth)

(* --- control instants: failpoint fires and connection drops ---------- *)

(* Failpoint fires and event-loop connection drops are control-tier
   instants: each must land in the snapshot without any sampling. *)
let test_control_instants () =
  with_recorder (fun () ->
      let site = "test.trace.instant" in
      Rp_fault.arm site ~trigger:Rp_fault.Always ~action:(Rp_fault.Delay 0.0);
      Fun.protect
        ~finally:(fun () -> Rp_fault.disarm site)
        (fun () -> Rp_fault.point site);
      let events, _ = Rp_trace.snapshot () in
      Alcotest.(check bool) "failpoint fire recorded" true
        (has_name events ("fault." ^ site));
      let store =
        Memcached.Store.create ~backend:Memcached.Store.Rp
          ~rcu_mode:Memcached.Store.Qsbr ~initial_size:8 ()
      in
      let path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "rp-trace-drop-%d.sock" (Unix.getpid ()))
      in
      let config =
        { Memcached.Server.default_config with Memcached.Server.workers = 1 }
      in
      let server =
        Memcached.Server.start ~store ~config (Memcached.Server.Unix_socket path)
      in
      Fun.protect
        ~finally:(fun () -> Memcached.Server.stop server)
        (fun () ->
          let client =
            Memcached.Client.connect (Memcached.Server.Unix_socket path)
          in
          Alcotest.(check bool) "set" true
            (Memcached.Client.set client ~key:"k" ~data:"v" ());
          Memcached.Client.close client;
          let deadline = Unix.gettimeofday () +. 5.0 in
          while
            Memcached.Server.active_connections server > 0
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.01
          done;
          let events, _ = Rp_trace.snapshot () in
          Alcotest.(check bool) "connection drop recorded" true
            (has_name events "server.conn.drop")))

(* --- end-to-end: pipelined GETs through the event loop ----------------- *)

(* The acceptance path: a fully-sampled pipelined batch through the
   sharded event loop, with persistence attached and a QSBR store small
   enough to resize under load, must leave spans from all three planes
   in one export — with the request spans nested under the batch
   dispatch span and detail spans nested under their request. *)
let test_evloop_end_to_end () =
  with_recorder ~sample:1 ~slow_ms:1e6 (fun () ->
      let dir = fresh_dir () in
      let store =
        Memcached.Store.create ~backend:Memcached.Store.Rp
          ~rcu_mode:Memcached.Store.Qsbr ~initial_size:8 ()
      in
      let persist =
        Memcached.Persist.attach ~fsync:Rp_persist.Oplog.Never ~dir store
      in
      let path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "rp-trace-ev-%d.sock" (Unix.getpid ()))
      in
      let config =
        {
          Memcached.Server.default_config with
          Memcached.Server.workers = 1;
        }
      in
      let server =
        Memcached.Server.start ~store ~config (Memcached.Server.Unix_socket path)
      in
      Fun.protect
        ~finally:(fun () ->
          Memcached.Server.stop server;
          Memcached.Persist.stop persist;
          rm_rf dir)
        (fun () ->
          let client =
            Memcached.Client.connect (Memcached.Server.Unix_socket path)
          in
          (* Enough distinct keys to force expansion of the 8-bucket
             table (grace periods) and feed the op log. *)
          for i = 0 to 127 do
            ignore
              (Memcached.Client.set client
                 ~key:(Printf.sprintf "k%d" i)
                 ~data:(Printf.sprintf "v%d" i)
                 ())
          done;
          Memcached.Client.close client;
          (* One write, 32 pipelined GETs plus quit: a single fill, a
             single batch dispatch. *)
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          let burst =
            String.concat ""
              (List.init 32 (fun i -> Printf.sprintf "get k%d\r\n" i))
            ^ "quit\r\n"
          in
          ignore (Unix.write_substring fd burst 0 (String.length burst));
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
          let body = Buffer.contents buf in
          let values = ref 0 in
          let i = ref 0 in
          while
            match String.index_from_opt body !i 'V' with
            | Some j when j + 6 <= String.length body ->
                if String.sub body j 6 = "VALUE " then incr values;
                i := j + 1;
                true
            | _ -> false
          do
            ()
          done;
          Alcotest.(check int) "all 32 pipelined GETs answered" 32 !values;
          let events, _torn = Rp_trace.snapshot () in
          (* Serving plane. *)
          Alcotest.(check bool) "conn.dispatch span" true
            (has_name events "conn.dispatch");
          Alcotest.(check bool) "req.text span" true (has_name events "req.text");
          Alcotest.(check bool) "conn.fill span" true
            (has_name events "conn.fill");
          (* RCU plane: detail-tier lookups, and a grace period from the
             8-bucket table expanding under 128 inserts. *)
          Alcotest.(check bool) "rp_ht lookup/insert spans" true
            (has_name events "rp_ht.lookup" || has_name events "rp_ht.insert");
          Alcotest.(check bool) "grace-period span" true
            (has_name events "qsbr.gp" || has_name events "rcu.gp");
          (* Persistence plane. *)
          Alcotest.(check bool) "persist.append span" true
            (has_name events "persist.append");
          (* Nesting: a request B record whose parent is a live batch
             dispatch span on the same domain... *)
          let find_b name =
            List.filter
              (fun (e : Rp_trace.event) -> e.name = name && e.phase = 0)
              events
          in
          let batches = find_b "conn.dispatch" in
          let reqs = find_b "req.text" in
          let nested_req =
            List.exists
              (fun (r : Rp_trace.event) ->
                List.exists
                  (fun (b : Rp_trace.event) ->
                    b.span = r.parent && b.domain = r.domain)
                  batches)
              reqs
          in
          Alcotest.(check bool) "request nests under batch dispatch" true
            nested_req;
          (* ... and a detail span (a complete X record) whose parent is
             a request span and whose trace id is that same request. *)
          let find_x name =
            List.filter
              (fun (e : Rp_trace.event) -> e.name = name && e.phase = 3)
              events
          in
          let details =
            find_x "store.read_section" @ find_x "rp_ht.lookup"
          in
          let nested_detail =
            List.exists
              (fun (d : Rp_trace.event) ->
                List.exists
                  (fun (r : Rp_trace.event) ->
                    r.span = d.parent && r.span = d.trace)
                  reqs)
              details
          in
          Alcotest.(check bool) "detail span nests under its request" true
            nested_detail;
          (* The export of the same window must be loadable JSON. *)
          let doc = Trend.parse (Rp_trace.export_json ()) in
          match Trend.member "traceEvents" doc with
          | Some (Trend.List l) ->
              Alcotest.(check bool) "export non-empty" true (l <> [])
          | _ -> Alcotest.fail "export not loadable"))

(* --- fully-sampled overhead guard -------------------------------------- *)

(* The 1-in-1024 guard lives in test_obs (<= 1.15x). This one bounds the
   worst case: every lookup inside a head-sampled request pays two
   records (B/E) with two clock reads. Alternate fully-sampled and
   kill-switched trials, keep the minimum of each side, bound the ratio
   at 1.5x. *)
(* Worst-case read overhead: every request head-sampled, so every lookup
   pays a full detail span (one cycle-counter read at begin, one at end,
   one 9-word X record at end). The baseline is a memcached-shaped
   lookup — string keys over a table much larger than cache, visited in
   a scattered order — because that is what the span cost dilutes into
   in production; a tiny cache-hot table would price the tracer against
   a lookup an order of magnitude cheaper than any the server serves. *)
let test_full_sample_overhead () =
  let entries = 262_144 in
  let keys = Array.init entries (Printf.sprintf "key:%08d") in
  let table =
    Rp_ht.create ~initial_size:entries ~auto_resize:false
      ~hash:Rp_hashes.Hashfn.fnv1a_string ~equal:String.equal ()
  in
  Array.iteri (fun i k -> Rp_ht.insert table k i) keys;
  let iters = 200_000 in
  (* Golden-ratio stride: deterministic, co-prime with the pow2 table, so
     consecutive lookups land on unrelated buckets (no prefetch help). *)
  let order =
    Array.init iters (fun i -> i * 2654435761 land (entries - 1))
  in
  let time_lookups () =
    let start = Unix.gettimeofday () in
    for i = 0 to iters - 1 do
      ignore (Rp_ht.find table (Array.unsafe_get keys (Array.unsafe_get order i)))
    done;
    Unix.gettimeofday () -. start
  in
  with_recorder ~sample:1 ~slow_ms:1e9 (fun () ->
      let k_req = Rp_trace.intern "test.overhead" in
      ignore (time_lookups ());
      (* warm up *)
      let sampled = ref infinity and off = ref infinity in
      for _ = 1 to 7 do
        Rp_trace.set_enabled true;
        Rp_trace.request_begin k_req;
        sampled := Float.min !sampled (time_lookups ());
        Rp_trace.request_end ();
        Rp_trace.set_enabled false;
        off := Float.min !off (time_lookups ())
      done;
      let ratio = !sampled /. !off in
      Printf.printf "fully-sampled overhead: %.0f vs %.0f ns/op (ratio %.3f)\n%!"
        (!sampled *. 1e9 /. float_of_int iters)
        (!off *. 1e9 /. float_of_int iters)
        ratio;
      Alcotest.(check bool)
        (Printf.sprintf "fully sampled/disabled = %.3f <= 1.5" ratio)
        true (ratio <= 1.5))

let () =
  Alcotest.run "rp_trace"
    [
      ( "core",
        [
          Alcotest.test_case "concurrent multi-domain emission" `Quick
            test_concurrent_emission;
          Alcotest.test_case "sampler determinism" `Quick
            test_sampler_determinism;
          Alcotest.test_case "perfetto export schema" `Quick
            test_perfetto_schema;
        ] );
      ( "integration",
        [
          Alcotest.test_case "tail-trigger retention" `Quick test_tail_trigger;
          Alcotest.test_case "control instants" `Quick test_control_instants;
          Alcotest.test_case "evloop end-to-end spans" `Quick
            test_evloop_end_to_end;
          Alcotest.test_case "fully-sampled overhead" `Slow
            test_full_sample_overhead;
        ] );
    ]
