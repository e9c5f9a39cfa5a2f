(* Coalesced GET runs: [Conn.dispatch] serves each run of consecutive
   get (or gets) requests with one multiget, and must answer exactly as
   request-at-a-time dispatch does. The property drives a connection over
   a socketpair (no server thread) and compares it with [Dispatch.handle]
   plus [Protocol.encode_response_into] on a twin store. *)

open Memcached

let base_time = 1_000_000_000.0
let nkeys = 14 (* k0..k11 are set up; k12 and k13 never exist *)
let key i = Printf.sprintf "k%d" i
let value i = String.init 100 (fun j -> Char.chr (97 + ((i + j) mod 26)))

(* An in-memory cold tier that always admits: demoted values are never
   lost, so which keys sit cold is a cache-residency detail no reply can
   see. *)
let memory_tier store =
  let frames = Hashtbl.create 16 and next = ref 0 in
  Store.set_tier store
    (Some
       {
         Store.th_demote =
           (fun key data ->
             incr next;
             Hashtbl.replace frames !next (key, data);
             Some (0, !next, String.length data));
         th_read =
           (fun (_, offset, _) ->
             match Hashtbl.find_opt frames offset with
             | Some kv -> Ok kv
             | None -> Error Store.Tier_gone);
         th_mark_dead = (fun (_, offset, _) -> Hashtbl.remove frames offset);
         th_admit = (fun () -> true);
       })

(* CAS values come from one process-wide counter. Twin stores built and
   driven by the same sequence of mutations draw the same run of values
   from it, offset by where each started: this reads that start. *)
let cas_base () =
  let slab = Slab.create () in
  Item.cas slab (Item.of_string slab ~flags:0 ~exptime:0 ~now:0 "")

let chunk_bytes =
  let s = Store.create ~backend:Store.Rp () in
  ignore (Store.set s ~key:(key 0) ~flags:0 ~exptime:0 ~data:(value 0));
  Store.bytes s

(* The longest valid key; the fixture stores it. *)
let long_key = String.make 250 'L'

(* A store six values large holding twelve keys and [long_key], so some
   are cold markers; k9..k11 expired five seconds ago. With [heat], the
   heat plane notes every GET and mutation. Returns the store and its
   CAS base. *)
let make_store ?(heat = false) () =
  let base = cas_base () in
  let now = ref base_time in
  let store =
    Store.create ~backend:Store.Rp ~max_bytes:(6 * chunk_bytes) ~initial_size:64
      ~heat_topk:(if heat then 32 else 0) ~heat_sample:1
      ~clock:(fun () -> !now)
      ()
  in
  memory_tier store;
  for i = 0 to 11 do
    ignore
      (Store.set store ~key:(key i) ~flags:i ~exptime:(if i >= 9 then 5 else 0) ~data:(value i))
  done;
  ignore (Store.set store ~key:long_key ~flags:250 ~exptime:0 ~data:(value 250));
  now := base_time +. 10.;
  (store, base)

(* Rewrite the CAS field of every VALUE line relative to [base]. Data
   blocks here are lower-case letters, so no data line looks like one. *)
let normalize base s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | [ "VALUE"; k; f; n; cas ] ->
             let cas = int_of_string (String.trim cas) - base in
             Printf.sprintf "VALUE %s %s %s %d\r" k f n cas
         | _ -> line)
  |> String.concat "\n"

(* Request-at-a-time reference: every request through [Dispatch.handle]
   in arrival order, stopping at quit. Returns the replies and the
   number of requests answered (errors and quit included). *)
let reference store pipeline =
  let p = Protocol.Parser.create () in
  Protocol.Parser.feed p pipeline;
  let out = Buffer.create 256 in
  let rec go n =
    match Protocol.Parser.next p with
    | None -> n
    | Some (Error msg) ->
        Protocol.encode_response_into out
          (if msg = "ERROR" then Protocol.Error_reply else Protocol.Client_error msg);
        go (n + 1)
    | Some (Ok Protocol.Quit) -> n + 1
    | Some (Ok request) ->
        Option.iter (Protocol.encode_response_into out) (Dispatch.handle store request);
        go (n + 1)
  in
  let n = go 0 in
  (Buffer.contents out, n)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* The fd has bytes (or EOF) to read now. *)
let readable fd = match Unix.select [ fd ] [] [] 0.0 with [], _, _ -> false | _ -> true

let coalesced_chunks ?max_out store chunks =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock client;
  Unix.set_nonblock server;
  let c =
    Conn.create ~id:1 ~buffer_size:4096 ~reads:(Rp_obs.Counter.create ())
      ~writes:(Rp_obs.Counter.create ()) server
  in
  let out = Buffer.create 256 and sink = Bytes.create 65536 and count = ref 0 in
  let rec drain () =
    match Unix.read client sink 0 (Bytes.length sink) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes out sink 0 n;
        drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let dispatch () = count := !count + Conn.dispatch ?max_out c store in
  let rec pump () =
    match Conn.flush c with
    | `Want_write ->
        drain ();
        pump ()
    | `Closed -> Alcotest.fail "connection torn"
    | `Done ->
        if (not (Conn.closing c)) && Conn.has_backlog c then begin
          dispatch ();
          pump ()
        end
  in
  (* One wakeup per turn, while the socket holds unread bytes: [fill]
     stops after a short read, as the event loop's does. *)
  let rec serve () =
    ignore (Conn.fill c);
    dispatch ();
    pump ();
    drain ();
    if (not (Conn.closing c)) && readable server then serve ()
  in
  (* A chunk larger than the socket's buffer goes in as it drains. *)
  let rec feed chunk off =
    if off < String.length chunk && not (Conn.closing c) then begin
      let off =
        match Unix.write_substring client chunk off (String.length chunk - off) with
        | n -> off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off
      in
      serve ();
      feed chunk off
    end
  in
  List.iter (fun chunk -> feed chunk 0) chunks;
  drain ();
  Unix.close client;
  Unix.close server;
  (Buffer.contents out, !count)

(* The coalescing connection: each chunk written to the peer end, then
   fill, dispatch and flush until nothing is deferred. With [split],
   the ["server.read.split"] failpoint caps reads at random lengths up
   to [split] bytes. Returns the replies and the requests [dispatch]
   counted. *)
let coalesced ?max_out ?split store chunks =
  match split with
  | None -> coalesced_chunks ?max_out store chunks
  | Some cap ->
      Rp_fault.arm ~seed:cap "server.read.split" ~trigger:(Probability 0.7)
        ~action:(Truncate_io cap);
      Fun.protect
        ~finally:(fun () -> Rp_fault.disarm "server.read.split")
        (fun () -> coalesced_chunks ?max_out store chunks)

(* What a store holds: every key's gets reply and the GET counters. *)
let state store base =
  let out = Buffer.create 256 in
  for i = 0 to nkeys - 1 do
    Option.iter (Protocol.encode_response_into out)
      (Dispatch.handle store (Protocol.Gets [ key i ]))
  done;
  let counters =
    List.filter
      (fun (k, _) -> List.mem k [ "get_hits"; "get_misses"; "cmd_get"; "cmd_set" ])
      (Store.stats store)
  in
  let heat =
    match Store.heat store with
    | None -> ""
    | Some h ->
        let top sketch =
          List.sort compare
            (List.map
               (fun (e : Rp_heat.Sketch.entry) -> Printf.sprintf "%s:%d" (String.escaped e.key) e.count)
               (Rp_heat.Sketch.top sketch))
        in
        String.concat " " (top (Rp_heat.hits h) @ ("|" :: top (Rp_heat.misses h)))
  in
  ( normalize base (Buffer.contents out),
    String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) counters) ^ " heat " ^ heat )

(* --- pipelines ------------------------------------------------------- *)

let key_gen = QCheck.Gen.(map key (int_bound (nkeys - 1)))
let noreply_gen = QCheck.Gen.(map (fun b -> if b then " noreply" else "") (frequencyl [ (3, false); (1, true) ]))
let exptime_gen = QCheck.Gen.oneofl [ 0; -1; 100 ]

let request_gen =
  let open QCheck.Gen in
  let keys = list_size (int_range 1 5) key_gen >|= String.concat " " in
  frequency
    [
      (6, keys >|= Printf.sprintf "get %s\r\n");
      (3, keys >|= Printf.sprintf "gets %s\r\n");
      ( 2,
        map4
          (fun k e n d ->
            Printf.sprintf "set %s 7 %d %d%s\r\n%s\r\n" k e (String.length d) n d)
          key_gen exptime_gen noreply_gen
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 150)) );
      (1, map2 (Printf.sprintf "delete %s%s\r\n") key_gen noreply_gen);
      (1, map3 (Printf.sprintf "touch %s %d%s\r\n") key_gen exptime_gen noreply_gen);
      (1, oneofl [ "bogus\r\n"; "get\r\n" ]);
      (1, return "quit\r\n");
    ]

let pipeline_arb =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(list_size (int_range 1 12) request_gen >|= String.concat "")

(* Every way of feeding a pipeline: whole, split at each offset, and
   whole under a write cap small enough to defer requests mid-run. *)
let feeds pipeline =
  let len = String.length pipeline in
  ((None, [ pipeline ]) :: (Some 64, [ pipeline ])
  :: List.init (len - 1) (fun i ->
         (None, [ String.sub pipeline 0 (i + 1); String.sub pipeline (i + 1) (len - i - 1) ]))
  )

let prop_coalesced_matches_reference =
  QCheck.Test.make ~name:"coalesced dispatch = per-request dispatch" ~count:20 pipeline_arb
    (fun pipeline ->
      let ref_store, ref_base = make_store () in
      let want, want_n = reference ref_store pipeline in
      let want = normalize ref_base want and want_state = state ref_store ref_base in
      List.for_all
        (fun (max_out, chunks) ->
          let store, base = make_store () in
          let got, got_n = coalesced ?max_out store chunks in
          let got = normalize base got in
          let how =
            Printf.sprintf "max_out %s, chunks %s"
              (Option.fold ~none:"none" ~some:string_of_int max_out)
              (String.concat " | " (List.map String.escaped chunks))
          in
          if got <> want then
            QCheck.Test.fail_reportf "%s\nreplies:\n%s\nreference:\n%s" how (String.escaped got)
              (String.escaped want);
          if got_n <> want_n then
            QCheck.Test.fail_reportf "%s: dispatch counted %d requests, reference %d" how got_n
              want_n;
          if state store base <> want_state then
            QCheck.Test.fail_reportf "%s: final store state differs" how;
          true)
        (feeds pipeline))

(* GET runs read in place against the general path: streams that are
   mostly get/gets lines — one to eight keys, now and then a line of 20
   to 70 so runs cross [Store.batch_keys] — over hot, cold and expired
   keys, misses, the 250-byte key, and keys the run scanner must leave
   to the general path (251 bytes, a control character, DEL), with a set,
   delete or garbage line now and then. Each stream is served whole, in
   random chunks, and in random chunks read through
   ["server.read.split"], on stores with the heat plane on and off; the
   replies, the request count, the final store state and the heat
   sketches must equal request-at-a-time [Parser.next] plus
   [Dispatch.handle] on a twin store, fed the same stream with one space
   before each command: the tokenizer skips it, and the in-place scans
   take no line that starts with one, so every request of the reference
   is read by the general path. *)
let run_key_gen =
  QCheck.Gen.(
    frequency
      [
        (14, key_gen);
        (1, return long_key);
        (1, return (String.make 251 'L'));
        (1, return "k\001x");
        (1, return "k\x7fy");
      ])

(* Lines and their reference form. Long lines hold short keys only, so
   every line stays far below [max_line]. *)
let run_line_gen =
  let open QCheck.Gen in
  let line verb keys n =
    map2
      (fun sep ks ->
        let l = verb ^ " " ^ String.concat sep ks ^ "\r\n" in
        (l, " " ^ l))
      (oneofl [ " "; "  " ])
      (list_repeat n keys)
  in
  let command l = (l, " " ^ l) in
  frequency
    [
      (12, int_range 1 8 >>= line "get" run_key_gen);
      (4, int_range 1 8 >>= line "gets" run_key_gen);
      (1, int_range 20 70 >>= line "get" key_gen);
      (1, int_range 20 70 >>= line "gets" key_gen);
      ( 1,
        map2
          (fun k d -> command (Printf.sprintf "set %s 3 0 %d\r\n%s\r\n" k (String.length d) d))
          key_gen
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 40)) );
      (1, map (fun k -> command (Printf.sprintf "delete %s\r\n" k)) key_gen);
      (1, map command (oneofl [ "bogus\r\n"; "get\r\n"; "gets \r\n" ]));
    ]

let run_stream_arb =
  QCheck.make
    ~print:(fun (stream, _, _) -> String.escaped stream)
    QCheck.Gen.(
      list_size (int_range 1 30) run_line_gen >>= fun lines ->
      let stream = String.concat "" (List.map fst lines) in
      (* three sets of cut points *)
      map
        (fun cuts -> (stream, String.concat "" (List.map snd lines), cuts))
        (list_repeat 3 (list_size (int_range 1 8) (int_bound (String.length stream)))))

let chunks_at stream cuts =
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < String.length stream) cuts) in
  let rec go from = function
    | [] -> [ String.sub stream from (String.length stream - from) ]
    | c :: rest -> String.sub stream from (c - from) :: go c rest
  in
  go 0 cuts

let prop_runs_match_general_path =
  QCheck.Test.make ~name:"GET runs = general path" ~count:25 run_stream_arb
    (fun (stream, general, cut_sets) ->
      List.for_all
        (fun heat ->
          let ref_store, ref_base = make_store ~heat () in
          let want, want_n = reference ref_store general in
          let want = normalize ref_base want and want_state = state ref_store ref_base in
          let feeds =
            (None, [ stream ])
            :: List.concat_map
                 (fun cuts -> [ (None, chunks_at stream cuts); (Some 7, chunks_at stream cuts) ])
                 cut_sets
          in
          List.for_all
            (fun (split, chunks) ->
              let store, base = make_store ~heat () in
              let got, got_n = coalesced ?split store chunks in
              let got = normalize base got in
              let how =
                Printf.sprintf "heat %b, split %s, %d chunks" heat
                  (Option.fold ~none:"off" ~some:string_of_int split)
                  (List.length chunks)
              in
              if got <> want then
                QCheck.Test.fail_reportf "%s\nreplies:\n%s\nreference:\n%s" how
                  (String.escaped got) (String.escaped want);
              if got_n <> want_n then
                QCheck.Test.fail_reportf "%s: dispatch counted %d requests, reference %d" how
                  got_n want_n;
              if state store base <> want_state then
                QCheck.Test.fail_reportf "%s: final store state differs:\n%s\n%s" how
                  (snd (state store base)) (snd want_state);
              true)
            feeds)
        [ false; true ])

(* Mixed runs against the general path: streams of get, gets and set
   lines, so runs hold SETs next to GETs and are served in order with
   one prefetch pass each. Set lines cover new and existing keys, a
   [set k] followed by [get k] in the same run, noreply, flags and
   exptimes the scan reads (and a negative exptime it leaves to the
   tokenizer), a declared length shorter than the block (a bad data
   chunk; the block's excess ends in CRLF, so the request after it
   parses the same in both streams), an invalid key, and now and then a value too large for
   any slab class; get lines cover runs past [Store.batch_keys] keys.
   Each stream is served whole, in random chunks, and in random chunks
   read through ["server.read.split"], with the heat plane on and off
   and with mutations admitted, shed by an overloaded guard, or refused
   by a read-only replica; replies, request count, final store state and
   heat sketches must equal request-at-a-time [Parser.next] plus
   [Dispatch.handle] on a twin store fed the same stream with a space
   before each command. *)
let oversize = String.make ((1 lsl 20) + 1) 'o'

let mixed_line_gen =
  let open QCheck.Gen in
  let command l = (l, " " ^ l) in
  let set_line k flags exptime data noreply =
    Printf.sprintf "set %s %d %d %d%s\r\n" k flags exptime (String.length data) noreply
  in
  let set_gen =
    map4
      (fun k (flags, exptime) data noreply ->
        let l = set_line k flags exptime data noreply in
        (l ^ data ^ "\r\n", " " ^ l ^ data ^ "\r\n"))
      (frequency [ (12, key_gen); (1, return long_key); (1, return (String.make 251 'L')) ])
      (pair (oneofl [ 0; 7; 65535 ]) (oneofl [ 0; 100; -1 ]))
      (string_size ~gen:(char_range 'a' 'z') (int_range 0 150))
      noreply_gen
  in
  let get_line verb n =
    map (fun ks -> command (verb ^ " " ^ String.concat " " ks ^ "\r\n")) (list_repeat n key_gen)
  in
  frequency
    [
      (8, set_gen);
      (6, int_range 1 4 >>= get_line "get");
      (3, int_range 1 4 >>= get_line "gets");
      (1, int_range 40 70 >>= get_line "get");
      ( 2,
        (* read your own write, inside one run *)
        map2
          (fun k d ->
            let l = set_line k 5 0 d "" ^ d ^ "\r\n" and g = "get " ^ k ^ "\r\n" in
            (l ^ g, " " ^ l ^ " " ^ g))
          key_gen
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 40)) );
      ( 1,
        map command
          (oneofl
             [ "set k1 0 0 5\r\nabcdefg\r\n"; "set k2 0 0 1\r\nxyz\r\n"; "delete k3\r\n"; "bogus\r\n" ]) );
    ]

let mixed_stream_arb =
  QCheck.make
    ~print:(fun (stream, _, _) ->
      if String.length stream > 4096 then String.escaped (String.sub stream 0 4096) ^ "..."
      else String.escaped stream)
    QCheck.Gen.(
      pair (list_size (int_range 1 40) mixed_line_gen) (frequencyl [ (7, false); (1, true) ])
      >>= fun (lines, big) ->
      (* A value one byte past the largest slab class, as the last line. *)
      let lines =
        if big then
          let l = Printf.sprintf "set k4 0 0 %d\r\n%s\r\n" (String.length oversize) oversize in
          lines @ [ (l, " " ^ l) ]
        else lines
      in
      let stream = String.concat "" (List.map fst lines) in
      map
        (fun cuts -> (stream, String.concat "" (List.map snd lines), cuts))
        (list_repeat 2 (list_size (int_range 1 8) (int_bound (String.length stream)))))

(* A guard pinned at [Shed]: it refuses every mutation. *)
let shedding_guard () =
  let g = Rp_guard.create ~interval:60.0 () in
  Rp_guard.add_source g ~name:"pinned" (fun () -> 0.9);
  Rp_guard.sweep g;
  if Rp_guard.admit_mutation g then Alcotest.fail "guard admits mutations";
  g

let gate_store gate store =
  match gate with
  | `Admit -> ()
  | `Shed -> Store.set_guard store (Some (shedding_guard ()))
  | `Read_only -> Store.set_read_only store true

let prop_mixed_runs_match_general_path =
  QCheck.Test.make ~name:"mixed runs = general path" ~count:25 mixed_stream_arb
    (fun (stream, general, cut_sets) ->
      (* A 1 MB stream read 7 bytes at a time would take 150k wakeups. *)
      let split = if String.length stream > 100_000 then 65_536 else 7 in
      List.for_all
        (fun (heat, gate) ->
          let ref_store, ref_base = make_store ~heat () in
          gate_store gate ref_store;
          let want, want_n = reference ref_store general in
          let want = normalize ref_base want and want_state = state ref_store ref_base in
          let feeds =
            (None, [ stream ])
            :: List.concat_map
                 (fun cuts -> [ (None, chunks_at stream cuts); (Some split, chunks_at stream cuts) ])
                 cut_sets
          in
          List.for_all
            (fun (split, chunks) ->
              let store, base = make_store ~heat () in
              gate_store gate store;
              let got, got_n = coalesced ?split store chunks in
              let got = normalize base got in
              let how =
                Printf.sprintf "heat %b, gate %s, split %s, %d chunks" heat
                  (match gate with `Admit -> "admit" | `Shed -> "shed" | `Read_only -> "read-only")
                  (Option.fold ~none:"off" ~some:string_of_int split)
                  (List.length chunks)
              in
              if got <> want then begin
                (* 600 bytes of each around the first difference *)
                let rec first i =
                  if i < String.length got && i < String.length want && got.[i] = want.[i] then
                    first (i + 1)
                  else i
                in
                let at = max 0 (first 0 - 300) in
                let clip s = String.escaped (String.sub s at (min 600 (String.length s - at))) in
                QCheck.Test.fail_reportf "%s\nreplies from byte %d:\n%s\nreference:\n%s" how at
                  (clip got) (clip want)
              end;
              if got_n <> want_n then
                QCheck.Test.fail_reportf "%s: dispatch counted %d requests, reference %d" how
                  got_n want_n;
              if state store base <> want_state then
                QCheck.Test.fail_reportf "%s: final store state differs:\n%s\n%s" how
                  (snd (state store base)) (snd want_state);
              true)
            feeds)
        [ (false, `Admit); (true, `Admit); (false, `Shed); (true, `Read_only) ])

(* Read-your-writes inside one run (DESIGN §10 "Batched reads"): a run
   mixing get and set lines is one request, and executes its lines in
   order, so a get reads every set before it in the same run — an
   overwrite, a new key, and a noreply set — whatever the run's prefetch
   pass brought into cache before the sets ran. *)
let test_mixed_run_reads_own_writes () =
  let store, _ = make_store () in
  let pipeline =
    String.concat ""
      [
        "get k1\r\n";
        "set k1 9 0 3\r\nnew\r\n";
        "get k1 k13\r\n";
        "set k13 4 0 2\r\nhi\r\n";
        "get k13\r\n";
        "set k1 8 0 4 noreply\r\nlast\r\n";
        "get k1\r\n";
      ]
  in
  Rp_trace.reset ();
  Rp_trace.configure ~sample:1 ();
  let got, n =
    Fun.protect
      ~finally:(fun () -> Rp_trace.configure ~sample:1024 ())
      (fun () -> coalesced store [ pipeline ])
  in
  let events, _ = Rp_trace.snapshot () in
  Rp_trace.reset ();
  Alcotest.(check int) "requests counted" 7 n;
  Alcotest.(check int) "one run, one request span" 1
    (List.length
       (List.filter (fun (e : Rp_trace.event) -> e.name = "req.text" && e.phase = 0) events));
  let v1 = value 1 in
  Alcotest.(check string) "each get reads the sets before it"
    (String.concat ""
       [
         "VALUE k1 1 100\r\n"; v1; "\r\nEND\r\n";
         "STORED\r\n";
         "VALUE k1 9 3\r\nnew\r\nEND\r\n";
         "STORED\r\n";
         "VALUE k13 4 2\r\nhi\r\nEND\r\n";
         "VALUE k1 8 4\r\nlast\r\nEND\r\n";
       ])
    got

(* The twin stores the property starts from hold what it means to test:
   cold markers, expired items and plain hot items. *)
let test_fixture () =
  let store, _ = make_store () in
  let cold = List.filter (fun i -> Store.tier_location store (key i) <> None) (List.init 12 Fun.id) in
  Alcotest.(check bool) "some keys are cold" true (cold <> []);
  Alcotest.(check bool) "some keys are hot" true (List.length cold < 12);
  let out, _ = reference store "get k9 k10 k11\r\n" in
  Alcotest.(check string) "k9..k11 expired" "END\r\n" out

(* A run splits its replies back per request, in order, including a
   request's duplicate keys and misses; a get after a set in the same
   run reads it. *)
let test_run_replies () =
  let store, _ = make_store () in
  let pipeline =
    "get k1 k1 k13\r\nget k12\r\nget k2\r\nset k1 0 0 1\r\nx\r\nget k1\r\n"
  in
  let got, n = coalesced store [ pipeline ] in
  Alcotest.(check int) "requests counted, not runs" 5 n;
  let v1 = value 1 and v2 = value 2 in
  Alcotest.(check string) "one block per request"
    (String.concat ""
       [
         "VALUE k1 1 100\r\n"; v1; "\r\nVALUE k1 1 100\r\n"; v1; "\r\nEND\r\n";
         "END\r\n";
         "VALUE k2 2 100\r\n"; v2; "\r\nEND\r\n";
         "STORED\r\n";
         "VALUE k1 0 1\r\nx\r\nEND\r\n";
       ])
    got

(* A run is one traced request, and stops at the key cap: 70 one-key
   GETs are two runs, one multiget each, 64 keys then 6. *)
let test_run_cap () =
  let store, _ = make_store () in
  let pipeline = String.concat "" (List.init 70 (fun i -> Printf.sprintf "get %s\r\n" (key (i mod 9)))) in
  Rp_trace.reset ();
  Rp_trace.configure ~sample:1 ();
  let got, n =
    Fun.protect
      ~finally:(fun () -> Rp_trace.configure ~sample:1024 ())
      (fun () -> coalesced store [ pipeline ])
  in
  Alcotest.(check int) "every request counted" 70 n;
  let events, _ = Rp_trace.snapshot () in
  Rp_trace.reset ();
  let named name phase =
    List.filter (fun (e : Rp_trace.event) -> e.name = name && e.phase = phase) events
  in
  Alcotest.(check int) "two request spans" 2 (List.length (named "req.text" 0));
  Alcotest.(check (list int)) "read sections of 64 and 6 keys" [ 64; 6 ]
    (List.map (fun (e : Rp_trace.event) -> e.arg) (named "store.read_section" 3));
  let want, _ = reference (fst (make_store ())) pipeline in
  Alcotest.(check string) "replies" want got

(* --- the input window ------------------------------------------------ *)

(* A connection over a socketpair, and a way to serve one batch through
   it: write the batch, fill, dispatch, flush, then read every reply
   back into [sink]. Returns the requests dispatched and the reply bytes
   read. *)
let window_conn () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock client;
  Unix.set_nonblock server;
  let c =
    Conn.create ~id:1 ~buffer_size:Server.default_config.read_buffer_size
      ~reads:(Rp_obs.Counter.create ()) ~writes:(Rp_obs.Counter.create ()) server
  in
  (client, server, c)

let rec read_replies client sink got =
  match Unix.read client sink 0 (Bytes.length sink) with
  | n -> read_replies client sink (got + n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> got

let serve_batch client c store sink batch =
  write_all client batch 0;
  ignore (Conn.fill c);
  let n = Conn.dispatch c store in
  (match Conn.flush c with `Done -> () | _ -> Alcotest.fail "flush did not complete");
  (n, read_replies client sink 0)

(* Words allocated straight in the major heap so far: major words less
   those promoted from the minor heap. A domain's major-word count is
   brought up to date by a major slice, so one runs to completion first. *)
let direct_major_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.major_words -. s.promoted_words

(* Steady-state serving allocates nothing straight in the major heap:
   reads land in the connection's window instead of a fresh string per
   read (batches here are 3-5 KB, past the minor heap's largest block). *)
let test_window_no_major_allocation () =
  let store = Store.create ~backend:Store.Rp () in
  let key i = Printf.sprintf "key:%012d" i in
  let gets = String.concat "" (List.init 128 (fun i -> Printf.sprintf "get %s\r\n" (key (i mod 64)))) in
  let sets =
    String.concat ""
      (List.init 32 (fun i -> Printf.sprintf "set %s 0 0 100\r\n%s\r\n" (key i) (value i)))
  in
  let client, server, c = window_conn () in
  let sink = Bytes.create 65536 in
  let round () =
    let n, _ = serve_batch client c store sink sets in
    Alcotest.(check int) "sets served" 32 n;
    let n, got = serve_batch client c store sink gets in
    Alcotest.(check int) "gets served" 128 n;
    (* 32 of the 64 keys hit: 64 VALUE blocks (132 B each), 128 ENDs *)
    Alcotest.(check int) "get replies" ((64 * 132) + (128 * 5)) got
  in
  for _ = 1 to 8 do
    round ()
  done;
  let before = direct_major_words () in
  for _ = 1 to 200 do
    round ()
  done;
  let words = direct_major_words () -. before in
  Unix.close client;
  Unix.close server;
  Alcotest.(check (float 0.)) "words allocated directly in the major heap" 0. words

(* Allocation gate (exact, no timing): serving a run of 64 one-key get
   lines, every one a hit, through [Conn.dispatch] allocates at most 2
   minor words per key. The run's walk array takes 1 (one word per key);
   the values are copied from their slab chunks into the connection's
   reused hits, and keys, requests and replies are never built as
   values. *)
let test_run_allocation () =
  let store = Store.create ~backend:Store.Rp ~rcu_mode:Store.Qsbr ~initial_size:64 () in
  let key i = Printf.sprintf "key:%012d" i in
  for i = 0 to 63 do
    ignore (Store.set store ~key:(key i) ~flags:i ~exptime:0 ~data:(value i))
  done;
  let run = String.concat "" (List.init 64 (fun i -> Printf.sprintf "get %s\r\n" (key i))) in
  let client, server, c = window_conn () in
  let sink = Bytes.create 65536 in
  let words = ref infinity in
  for _ = 1 to 8 do
    write_all client run 0;
    ignore (Conn.fill c);
    let w0 = Gc.minor_words () in
    let n = Conn.dispatch c store in
    words := Float.min !words (Gc.minor_words () -. w0);
    Alcotest.(check int) "requests" 64 n;
    (match Conn.flush c with `Done -> () | _ -> Alcotest.fail "flush did not complete");
    (* 64 VALUE blocks of 132 B, 54 of them with a two-digit flag, and
       64 ENDs *)
    Alcotest.(check int) "reply bytes" ((64 * 132) + 54 + (64 * 5)) (read_replies client sink 0)
  done;
  Store.reader_offline store;
  Unix.close client;
  Unix.close server;
  let per_key = !words /. 64. in
  Printf.printf "64-key run: %.0f minor words, %.2f per key\n" !words per_key;
  Alcotest.(check bool) (Printf.sprintf "%.2f words per key <= 2" per_key) true (per_key <= 2.)

(* Allocation gate (exact, no timing): a run of 64 same-size overwrite
   set lines, heat and op log off, served through [Conn.dispatch]. Each
   SET writes its item — header and value — straight from the input
   window into a slab chunk off the heap and publishes the chunk's id,
   an immediate, so it allocates only the table exchange's [Replaced]
   (2 words). The chunk bookkeeping allocates nothing once warm: a
   magazine refill takes no closure, and the run's one limbo batch of
   64 retired chunks is a pooled batch whose hand-off to [Rcu.call_rcu]
   costs the callback queue's cell (3 words). The pool fills as the RCU
   runs its callbacks, 64 batches at a time, so the gate reads the last
   8 of 80 runs. No key, request or reply value is built. The run's one
   clock reading and the dispatch call's loop closures and span add a
   fixed 33 words (a run of 32 such lines allocates 97 words); at most
   36 are allowed for them. *)
let test_set_run_allocation () =
  let store = Store.create ~backend:Store.Rp ~rcu_mode:Store.Qsbr ~initial_size:64 () in
  let key i = Printf.sprintf "key:%012d" i in
  for i = 0 to 63 do
    ignore (Store.set store ~key:(key i) ~flags:0 ~exptime:0 ~data:(value i))
  done;
  let run =
    String.concat ""
      (List.init 64 (fun i -> Printf.sprintf "set %s 0 0 100\r\n%s\r\n" (key i) (value (i + 1))))
  in
  let client, server, c = window_conn () in
  let sink = Bytes.create 65536 in
  let words = ref infinity in
  for r = 1 to 80 do
    write_all client run 0;
    ignore (Conn.fill c);
    let w0 = Gc.minor_words () in
    let n = Conn.dispatch c store in
    if r > 72 then words := Float.min !words (Gc.minor_words () -. w0);
    Alcotest.(check int) "requests" 64 n;
    (match Conn.flush c with `Done -> () | _ -> Alcotest.fail "flush did not complete");
    Alcotest.(check int) "reply bytes" (64 * 8) (read_replies client sink 0)
  done;
  Store.reader_offline store;
  Unix.close client;
  Unix.close server;
  Alcotest.(check int) "items" 64 (Store.items store);
  let per_set = !words /. 64. in
  Printf.printf "64-set run: %.0f minor words, %.2f per set\n" !words per_set;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= 64 * 2 + 3 + 36" !words)
    true
    (!words <= (64. *. 2.) +. 3. +. 36.)

(* A 1 MB SET grows the window; once it drains, the window is back at or
   below the retain size. *)
let test_window_retained_after_large_set () =
  let store = Store.create ~backend:Store.Rp () in
  let data = String.make 1_000_000 'L' in
  let request = Printf.sprintf "set big 0 0 %d\r\n%s\r\n" (String.length data) data in
  let client, server, c = window_conn () in
  let sink = Bytes.create 65536 and peak = ref 0 and replies = Buffer.create 16 in
  let rec pump off =
    let off =
      if off = String.length request then off
      else
        match Unix.write_substring client request off (String.length request - off) with
        | n -> off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off
    in
    ignore (Conn.fill c);
    peak := max !peak (Conn.input_capacity c);
    ignore (Conn.dispatch c store);
    ignore (Conn.flush c);
    let got = read_replies client sink 0 in
    Buffer.add_subbytes replies sink 0 got;
    if Buffer.length replies = 0 then pump off
  in
  pump 0;
  Unix.close client;
  Unix.close server;
  Alcotest.(check string) "reply" "STORED\r\n" (Buffer.contents replies);
  Alcotest.(check bool) "the window grew past the retain size" true
    (!peak > Protocol.Inbuf.retain_bytes);
  Alcotest.(check bool) "drained window at or below the retain size" true
    (Conn.input_capacity c <= Protocol.Inbuf.retain_bytes)

(* [Conn.fill] stops after a read that returns less than it asked for,
   leaving the rest to the next wakeup of a level-triggered poll: bytes
   that arrive over several short reads (["server.read.split"] caps
   each at 7) are all served, one fill per wakeup, and an EOF that
   follows a short read still closes the connection. *)
let test_fill_short_reads () =
  let store, _ = make_store () in
  let client, server, c = window_conn () in
  let sink = Bytes.create 65536 in
  let pipeline = "set k1 0 0 3\r\nabc\r\nget k1\r\nget k2 k13\r\n" in
  let want, _ = reference (fst (make_store ())) pipeline in
  Rp_fault.arm "server.read.split" ~trigger:Always ~action:(Truncate_io 7);
  let fills = ref 0 and served = ref 0 and replies = Buffer.create 256 in
  Fun.protect
    ~finally:(fun () -> Rp_fault.disarm "server.read.split")
    (fun () ->
      write_all client pipeline 0;
      while readable server do
        (match Conn.fill c with `Ok -> () | `Eof -> Alcotest.fail "EOF before the end");
        incr fills;
        served := !served + Conn.dispatch c store;
        (match Conn.flush c with `Done -> () | _ -> Alcotest.fail "flush did not complete");
        let n = read_replies client sink 0 in
        Buffer.add_subbytes replies sink 0 n
      done);
  Alcotest.(check int) "one 7-byte read per fill"
    ((String.length pipeline + 6) / 7) !fills;
  Alcotest.(check int) "every request served" 3 !served;
  Alcotest.(check string) "replies" want (Buffer.contents replies);
  (* a short read, then EOF: the next wakeup's fill reports it *)
  write_all client "get k1\r\n" 0;
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  (match Conn.fill c with `Ok -> () | `Eof -> Alcotest.fail "EOF with the data");
  Alcotest.(check int) "the last request served" 1 (Conn.dispatch c store);
  Alcotest.(check bool) "the EOF wakes the poll" true (readable server);
  (match Conn.fill c with `Eof -> () | `Ok -> Alcotest.fail "EOF missed");
  Unix.close client;
  Unix.close server

(* A connection that never sends holds no window. *)
let test_idle_holds_no_window () =
  let store = Store.create ~backend:Store.Rp () in
  let client, server, c = window_conn () in
  Alcotest.(check int) "after accept" 0 (Conn.input_capacity c);
  (match Conn.fill c with `Ok -> () | `Eof -> Alcotest.fail "unexpected EOF");
  Alcotest.(check int) "dispatched" 0 (Conn.dispatch c store);
  Alcotest.(check int) "after a read that found nothing" 0 (Conn.input_capacity c);
  Unix.close client;
  Unix.close server

let () =
  Alcotest.run "conn"
    [
      ( "get runs",
        [
          Alcotest.test_case "fixture" `Quick test_fixture;
          Alcotest.test_case "replies split per request" `Quick test_run_replies;
          Alcotest.test_case "key cap" `Quick test_run_cap;
          QCheck_alcotest.to_alcotest ~long:false prop_coalesced_matches_reference;
          QCheck_alcotest.to_alcotest ~long:false prop_runs_match_general_path;
        ] );
      ( "mixed",
        [
          Alcotest.test_case "reads its own writes" `Quick test_mixed_run_reads_own_writes;
          QCheck_alcotest.to_alcotest ~long:false prop_mixed_runs_match_general_path;
        ] );
      ( "window",
        [
          Alcotest.test_case "no direct major allocation" `Quick test_window_no_major_allocation;
          Alcotest.test_case "retain size after a 1 MB set" `Quick
            test_window_retained_after_large_set;
          Alcotest.test_case "idle connection holds no window" `Quick test_idle_holds_no_window;
          Alcotest.test_case "short reads all served" `Quick test_fill_short_reads;
          Alcotest.test_case "64-key run allocation" `Quick test_run_allocation;
          Alcotest.test_case "64-set run allocation" `Quick test_set_run_allocation;
        ] );
    ]
