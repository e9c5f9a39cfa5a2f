(* Binary protocol: codec round trips, dispatch semantics (incl. quiet ops
   and counter seeding), socket integration with protocol auto-detection,
   and frame fuzzing. *)

open Memcached

let make_store () = Store.create ~backend:Store.Rp ~initial_size:64 ()

let request ?(key = "") ?(value = "") ?(extras = "") ?(cas = 0) ?(opaque = 7)
    opcode : Binary_protocol.request =
  { opcode; key; value; extras; opaque; cas }

(* --- codec --- *)

let test_opcode_bytes () =
  List.iter
    (fun opcode ->
      match Binary_protocol.(opcode_of_byte (opcode_to_byte opcode)) with
      | Some back when back = opcode -> ()
      | _ -> Alcotest.fail "opcode byte round trip")
    Binary_protocol.
      [
        Get; Set; Add; Replace; Delete; Increment; Decrement; Quit; Flush;
        GetQ; Noop; Version; GetK; GetKQ; Append; Prepend; Stat; Touch;
        GAT; GATQ;
      ];
  Alcotest.(check (option reject)) "unknown opcode" None
    (Binary_protocol.opcode_of_byte 0x42 |> Option.map (fun _ -> ()))

let test_status_ints () =
  List.iter
    (fun status ->
      Alcotest.(check bool)
        "status int round trip" true
        (Binary_protocol.(status_of_int (status_to_int status)) = status))
    Binary_protocol.
      [
        Ok_status; Key_not_found; Key_exists; Value_too_large;
        Invalid_arguments; Item_not_stored; Non_numeric_value; Unknown_command;
      ]

let test_request_roundtrip () =
  let requests =
    [
      request Binary_protocol.Get ~key:"some-key";
      request Binary_protocol.Set ~key:"k" ~value:"payload"
        ~extras:(Binary_protocol.set_extras ~flags:99 ~exptime:3600)
        ~cas:12345;
      request Binary_protocol.Increment ~key:"c"
        ~extras:(Binary_protocol.counter_extras ~delta:5 ~initial:10 ~exptime:0);
      request Binary_protocol.Noop;
      request Binary_protocol.Quit;
    ]
  in
  List.iter
    (fun r ->
      let p = Binary_protocol.Parser.create () in
      Binary_protocol.Parser.feed p (Binary_protocol.encode_request r);
      match Binary_protocol.Parser.next p with
      | Some (Ok parsed) ->
          if parsed <> r then Alcotest.fail "request round trip changed"
      | _ -> Alcotest.fail "request round trip failed")
    requests

let test_response_roundtrip () =
  let response : Binary_protocol.response =
    {
      r_opcode = Binary_protocol.Get;
      status = Binary_protocol.Ok_status;
      r_key = "";
      r_value = "hello\r\nbinary\x00world";
      r_extras = Binary_protocol.get_response_extras ~flags:77;
      r_opaque = 0xDEAD;
      r_cas = 42;
    }
  in
  let p = Binary_protocol.Response_parser.create () in
  Binary_protocol.Response_parser.feed p (Binary_protocol.encode_response response);
  match Binary_protocol.Response_parser.next p with
  | Some (Ok parsed) ->
      Alcotest.(check bool) "identical" true (parsed = response)
  | _ -> Alcotest.fail "response round trip failed"

let test_incremental_frame () =
  let r =
    request Binary_protocol.Set ~key:"key" ~value:(String.make 100 'v')
      ~extras:(Binary_protocol.set_extras ~flags:0 ~exptime:0)
  in
  let encoded = Binary_protocol.encode_request r in
  let p = Binary_protocol.Parser.create () in
  String.iteri
    (fun i c ->
      Binary_protocol.Parser.feed p (String.make 1 c);
      match Binary_protocol.Parser.next p with
      | Some (Ok parsed) ->
          Alcotest.(check int) "completes at last byte" (String.length encoded - 1) i;
          Alcotest.(check bool) "intact" true (parsed = r)
      | Some (Error e) -> Alcotest.failf "error mid-frame: %s" e
      | None -> ())
    encoded

let test_bad_magic_rejected () =
  let p = Binary_protocol.Parser.create () in
  Binary_protocol.Parser.feed p (String.make 24 '\x55');
  match Binary_protocol.Parser.next p with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "bad magic accepted"

let test_u64_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "u64 %d" v)
        v
        (Binary_protocol.parse_u64 (Binary_protocol.u64_bytes v) 0))
    [ 0; 1; 255; 65536; 1 lsl 40; (1 lsl 62) - 1 ]

(* --- dispatch --- *)

let test_dispatch_set_get () =
  let store = make_store () in
  let set =
    request Binary_protocol.Set ~key:"k" ~value:"v"
      ~extras:(Binary_protocol.set_extras ~flags:3 ~exptime:0)
  in
  (match Binary_server.handle store set with
  | [ r ] ->
      Alcotest.(check bool) "stored" true (r.status = Binary_protocol.Ok_status);
      Alcotest.(check bool) "cas returned" true (r.r_cas > 0)
  | _ -> Alcotest.fail "set reply shape");
  match Binary_server.handle store (request Binary_protocol.Get ~key:"k") with
  | [ r ] ->
      Alcotest.(check string) "value" "v" r.r_value;
      Alcotest.(check int) "flags in extras" 3 (Binary_protocol.parse_u32 r.r_extras 0)
  | _ -> Alcotest.fail "get reply shape"

let test_dispatch_quiet_get () =
  let store = make_store () in
  Alcotest.(check int) "GetQ miss is silent" 0
    (List.length (Binary_server.handle store (request Binary_protocol.GetQ ~key:"nope")));
  (match Binary_server.handle store (request Binary_protocol.Get ~key:"nope") with
  | [ r ] ->
      Alcotest.(check bool) "loud miss" true (r.status = Binary_protocol.Key_not_found)
  | _ -> Alcotest.fail "loud get shape");
  ignore
    (Binary_server.handle store
       (request Binary_protocol.Set ~key:"yes" ~value:"v"
          ~extras:(Binary_protocol.set_extras ~flags:0 ~exptime:0)));
  match Binary_server.handle store (request Binary_protocol.GetKQ ~key:"yes") with
  | [ r ] -> Alcotest.(check string) "GetKQ echoes key" "yes" r.r_key
  | _ -> Alcotest.fail "GetKQ hit shape"

let test_dispatch_cas_via_set () =
  let store = make_store () in
  ignore
    (Binary_server.handle store
       (request Binary_protocol.Set ~key:"k" ~value:"v1"
          ~extras:(Binary_protocol.set_extras ~flags:0 ~exptime:0)));
  let cas =
    match Binary_server.handle store (request Binary_protocol.Get ~key:"k") with
    | [ r ] -> r.r_cas
    | _ -> Alcotest.fail "get"
  in
  let set_with_cas c =
    match
      Binary_server.handle store
        (request Binary_protocol.Set ~key:"k" ~value:"v2" ~cas:c
           ~extras:(Binary_protocol.set_extras ~flags:0 ~exptime:0))
    with
    | [ r ] -> r.status
    | _ -> Alcotest.fail "set"
  in
  Alcotest.(check bool) "stale cas rejected" true
    (set_with_cas (cas + 1) = Binary_protocol.Key_exists);
  Alcotest.(check bool) "fresh cas accepted" true
    (set_with_cas cas = Binary_protocol.Ok_status)

let test_dispatch_counter_seeding () =
  let store = make_store () in
  let incr ?(exptime = 0) key delta initial =
    match
      Binary_server.handle store
        (request Binary_protocol.Increment ~key
           ~extras:(Binary_protocol.counter_extras ~delta ~initial ~exptime))
    with
    | [ r ] -> r
    | _ -> Alcotest.fail "incr reply shape"
  in
  (* Miss with initial: seeds. *)
  let r = incr "c" 5 100 in
  Alcotest.(check int) "seeded" 100 (Binary_protocol.parse_u64 r.r_value 0);
  (* Hit: applies delta. *)
  let r = incr "c" 5 100 in
  Alcotest.(check int) "incremented" 105 (Binary_protocol.parse_u64 r.r_value 0);
  (* Miss with exptime = 0xffffffff: refuses to create. *)
  let r = incr ~exptime:0xffffffff "fresh" 1 0 in
  Alcotest.(check bool) "no-create miss" true
    (r.status = Binary_protocol.Key_not_found)

let test_dispatch_stat_terminator () =
  let store = make_store () in
  let replies = Binary_server.handle store (request Binary_protocol.Stat) in
  Alcotest.(check bool) "several stats" true (List.length replies > 1);
  let last = List.nth replies (List.length replies - 1) in
  Alcotest.(check string) "empty terminator" "" last.r_key;
  Alcotest.(check string) "empty terminator value" "" last.r_value

let test_dispatch_stat_sections () =
  let store = make_store () in
  let section key =
    let replies =
      Binary_server.handle store (request Binary_protocol.Stat ~key)
    in
    List.filter_map
      (fun (r : Binary_protocol.response) ->
        if r.r_key = "" then None else Some (r.r_key, r.r_value))
      replies
  in
  (* rp: the store is on the Rp backend, so the section is populated. *)
  Alcotest.(check bool) "stats rp non-empty" true (section "rp" <> []);
  Alcotest.(check bool) "rp_ht stats present" true
    (List.exists (fun (k, _) -> String.length k >= 5 && String.sub k 0 5 = "rp_ht")
       (section "rp"));
  (* persist: not attached — empty section, but still a clean terminator. *)
  (match
     Binary_server.handle store (request Binary_protocol.Stat ~key:"persist")
   with
  | [ last ] -> Alcotest.(check string) "bare terminator" "" last.r_key
  | _ -> Alcotest.fail "persist section shape");
  (* trace: the flight recorder always reports its state. *)
  Alcotest.(check bool) "stats trace has sample rate" true
    (List.mem_assoc "trace_sample" (section "trace"));
  (* unknown section: a single error reply. *)
  match
    Binary_server.handle store (request Binary_protocol.Stat ~key:"bogus")
  with
  | [ r ] ->
      Alcotest.(check bool) "unknown section rejected" true
        (r.status = Binary_protocol.Invalid_arguments)
  | _ -> Alcotest.fail "unknown section shape"

(* Every [stats] section answers the same lines in text and binary, and
   both are [Store.stats_section]: first with no plane attached, then
   with the guard, a cold tier and the heat plane attached. An unknown
   section is refused by each protocol in its own way, and [reset]
   clears the heat sketches through either. *)
let sections = [ ""; "rp"; "persist"; "trace"; "guard"; "tier"; "cluster"; "heat" ]

let check_stats_parity store =
  List.iter
    (fun name ->
      let text =
        let arg = if name = "" then None else Some name in
        match Dispatch.handle store (Protocol.Stats arg) with
        | Some (Protocol.Stats_reply lines) -> lines
        | _ -> Alcotest.failf "text stats %S: not a stats reply" name
      in
      let binary =
        List.filter_map
          (fun (r : Binary_protocol.response) ->
            if r.r_key = "" then None else Some (r.r_key, r.r_value))
          (Binary_server.handle store (request Binary_protocol.Stat ~key:name))
      in
      let expected = Option.get (Store.stats_section store name) in
      let lines = Alcotest.(list (pair string string)) in
      Alcotest.check lines (Printf.sprintf "text stats %S" name) expected text;
      Alcotest.check lines (Printf.sprintf "binary stats %S" name) expected binary)
    sections;
  (match Dispatch.handle store (Protocol.Stats (Some "bogus")) with
  | Some (Protocol.Client_error _) -> ()
  | _ -> Alcotest.fail "text: unknown section not refused");
  match Binary_server.handle store (request Binary_protocol.Stat ~key:"bogus") with
  | [ r ] ->
      Alcotest.(check bool) "binary: unknown section refused" true
        (r.status = Binary_protocol.Invalid_arguments)
  | _ -> Alcotest.fail "binary: unknown section shape"

let test_dispatch_stats_parity () =
  check_stats_parity (make_store ());
  let dir = Filename.temp_file "rp-parity" ".tier" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let store =
    Store.create ~backend:Store.Rp ~initial_size:64 ~heat_topk:4 ~heat_sample:1 ()
  in
  ignore (Guard.install store);
  let tier =
    match Tier.attach ~dir ~max_mb:1 store with
    | Ok t -> t
    | Error e -> Alcotest.failf "tier attach: %s" e
  in
  Fun.protect
    ~finally:(fun () ->
      Tier.stop tier;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      ignore (Store.set store ~key:"hot" ~flags:0 ~exptime:0 ~data:"v");
      ignore (Store.get store "hot");
      check_stats_parity store;
      List.iter
        (fun plane ->
          Alcotest.(check (option string)) (plane ^ " attached") (Some "1")
            (List.assoc_opt (plane ^ "_enabled")
               (Option.get (Store.stats_section store plane))))
        [ "guard"; "tier"; "heat" ];
      let heat_top () =
        List.mem_assoc "heat_top_hits_0_key"
          (Option.get (Store.stats_section store "heat"))
      in
      Alcotest.(check bool) "a hit is tracked" true (heat_top ());
      ignore (Dispatch.handle store (Protocol.Stats (Some "reset")));
      Alcotest.(check bool) "text reset clears" false (heat_top ());
      ignore (Store.get store "hot");
      ignore (Binary_server.handle store (request Binary_protocol.Stat ~key:"reset"));
      Alcotest.(check bool) "binary reset clears" false (heat_top ()))

let test_dispatch_touch_gat () =
  let store = make_store () in
  ignore
    (Binary_server.handle store
       (request Binary_protocol.Set ~key:"g" ~value:"gv"
          ~extras:(Binary_protocol.set_extras ~flags:9 ~exptime:0)));
  (* touch round trip *)
  (match
     Binary_server.handle store
       (request Binary_protocol.Touch ~key:"g"
          ~extras:(Binary_protocol.touch_extras ~exptime:3600))
   with
  | [ r ] ->
      Alcotest.(check bool) "touch ok" true (r.status = Binary_protocol.Ok_status)
  | _ -> Alcotest.fail "touch shape");
  (match
     Binary_server.handle store
       (request Binary_protocol.Touch ~key:"ghost"
          ~extras:(Binary_protocol.touch_extras ~exptime:3600))
   with
  | [ r ] ->
      Alcotest.(check bool) "touch miss" true
        (r.status = Binary_protocol.Key_not_found)
  | _ -> Alcotest.fail "touch miss shape");
  (* GAT returns the value + flags like a get *)
  (match
     Binary_server.handle store
       (request Binary_protocol.GAT ~key:"g"
          ~extras:(Binary_protocol.touch_extras ~exptime:3600))
   with
  | [ r ] ->
      Alcotest.(check string) "gat value" "gv" r.r_value;
      Alcotest.(check int) "gat flags" 9 (Binary_protocol.parse_u32 r.r_extras 0)
  | _ -> Alcotest.fail "gat shape");
  (* loud GAT miss vs silent GATQ miss *)
  (match
     Binary_server.handle store
       (request Binary_protocol.GAT ~key:"ghost"
          ~extras:(Binary_protocol.touch_extras ~exptime:60))
   with
  | [ r ] ->
      Alcotest.(check bool) "gat miss" true
        (r.status = Binary_protocol.Key_not_found)
  | _ -> Alcotest.fail "gat miss shape");
  Alcotest.(check int) "gatq miss is silent" 0
    (List.length
       (Binary_server.handle store
          (request Binary_protocol.GATQ ~key:"ghost"
             ~extras:(Binary_protocol.touch_extras ~exptime:60))));
  (* malformed extras *)
  match Binary_server.handle store (request Binary_protocol.GAT ~key:"g") with
  | [ r ] ->
      Alcotest.(check bool) "gat without extras rejected" true
        (r.status = Binary_protocol.Invalid_arguments)
  | _ -> Alcotest.fail "bad gat shape"

let test_dispatch_misc () =
  let store = make_store () in
  (match Binary_server.handle store (request Binary_protocol.Version) with
  | [ r ] -> Alcotest.(check string) "version" Server.version_string r.r_value
  | _ -> Alcotest.fail "version");
  (match Binary_server.handle store (request Binary_protocol.Noop) with
  | [ r ] -> Alcotest.(check bool) "noop ok" true (r.status = Binary_protocol.Ok_status)
  | _ -> Alcotest.fail "noop");
  Alcotest.(check int) "quit silent" 0
    (List.length (Binary_server.handle store (request Binary_protocol.Quit)));
  (* Malformed extras *)
  match
    Binary_server.handle store (request Binary_protocol.Set ~key:"k" ~value:"v")
  with
  | [ r ] ->
      Alcotest.(check bool) "set without extras rejected" true
        (r.status = Binary_protocol.Invalid_arguments)
  | _ -> Alcotest.fail "bad set shape"

(* --- socket integration with auto-detection --- *)

let with_server f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-mc-bin-%d.sock" (Unix.getpid ()))
  in
  let store = make_store () in
  let server = Server.start ~store (Server.Unix_socket path) in
  (match f (Server.Unix_socket path) with
  | () -> Server.stop server
  | exception e ->
      Server.stop server;
      raise e)

let test_socket_binary_roundtrip () =
  with_server (fun addr ->
      let c = Binary_client.connect addr in
      Alcotest.(check bool) "set" true
        (Binary_client.set c ~key:"bk" ~data:"bv" () = Binary_protocol.Ok_status);
      (match Binary_client.get c "bk" with
      | Some (v, _) -> Alcotest.(check string) "get" "bv" v
      | None -> Alcotest.fail "binary get missed");
      Alcotest.(check (option reject)) "miss" None
        (Binary_client.get c "ghost" |> Option.map (fun _ -> ()));
      Alcotest.(check bool) "delete" true (Binary_client.delete c "bk");
      Alcotest.(check bool) "delete again" false (Binary_client.delete c "bk");
      Alcotest.(check bool) "set for touch" true
        (Binary_client.set c ~key:"tk" ~data:"tv" () = Binary_protocol.Ok_status);
      Alcotest.(check bool) "touch over socket" true
        (Binary_client.touch c ~key:"tk" ~exptime:3600);
      Alcotest.(check bool) "touch miss over socket" false
        (Binary_client.touch c ~key:"ghost" ~exptime:3600);
      (match Binary_client.gat c ~key:"tk" ~exptime:60 with
      | Some (v, _) -> Alcotest.(check string) "gat over socket" "tv" v
      | None -> Alcotest.fail "gat missed");
      Alcotest.(check (option reject)) "gat miss over socket" None
        (Binary_client.gat c ~key:"ghost" ~exptime:60 |> Option.map (fun _ -> ()));
      Alcotest.(check string) "version" Server.version_string (Binary_client.version c);
      Binary_client.noop c;
      Binary_client.close c)

let test_socket_binary_counters_and_stats () =
  with_server (fun addr ->
      let c = Binary_client.connect addr in
      Alcotest.(check (option int)) "incr seeds" (Some 10)
        (Binary_client.incr c ~initial:10 "cnt" 5);
      Alcotest.(check (option int)) "incr applies" (Some 15)
        (Binary_client.incr c ~initial:10 "cnt" 5);
      Alcotest.(check (option int)) "decr" (Some 12) (Binary_client.decr c "cnt" 3);
      let stats = Binary_client.stats c in
      Alcotest.(check bool) "stats non-empty" true (List.length stats > 0);
      Alcotest.(check bool) "has backend stat" true (List.mem_assoc "backend" stats);
      let trace = Binary_client.stats ~key:"trace" c in
      Alcotest.(check bool) "keyed trace section" true
        (List.mem_assoc "trace_enabled" trace);
      Binary_client.close c)

let test_socket_both_protocols_share_store () =
  with_server (fun addr ->
      (* Text client writes, binary client reads — same store. *)
      let text = Client.connect addr in
      let bin = Binary_client.connect addr in
      Alcotest.(check bool) "text set" true
        (Client.set text ~key:"shared" ~data:"from-text" ());
      (match Binary_client.get bin "shared" with
      | Some (v, _) -> Alcotest.(check string) "binary reads it" "from-text" v
      | None -> Alcotest.fail "binary missed text write");
      Alcotest.(check bool) "binary set" true
        (Binary_client.set bin ~key:"shared2" ~data:"from-binary" ()
        = Binary_protocol.Ok_status);
      (match Client.get text "shared2" with
      | Some v -> Alcotest.(check string) "text reads it" "from-binary" v.vdata
      | None -> Alcotest.fail "text missed binary write");
      Client.close text;
      Binary_client.close bin)

(* --- fuzz --- *)

let prop_parser_never_crashes =
  QCheck.Test.make ~name:"binary parser survives arbitrary bytes" ~count:500
    QCheck.(string_of_size Gen.(int_bound 200))
    (fun garbage ->
      let p = Binary_protocol.Parser.create () in
      Binary_protocol.Parser.feed p garbage;
      let rec drain budget =
        if budget = 0 then true
        else
          match Binary_protocol.Parser.next p with
          | Some (Ok _) -> drain (budget - 1)
          | Some (Error _) -> true (* connection would drop *)
          | None -> true
      in
      drain 100)

let prop_value_roundtrip =
  QCheck.Test.make ~name:"binary values round trip any bytes" ~count:300
    QCheck.(pair (string_of_size Gen.(int_bound 100)) (string_of_size Gen.(int_bound 50)))
    (fun (value, extras) ->
      let r =
        request Binary_protocol.Set ~key:"k" ~value
          ~extras:(String.sub extras 0 (min 255 (String.length extras)))
      in
      let p = Binary_protocol.Parser.create () in
      Binary_protocol.Parser.feed p (Binary_protocol.encode_request r);
      match Binary_protocol.Parser.next p with
      | Some (Ok parsed) -> parsed = r
      | _ -> false)

(* --- the input window ---

   Frames read into the window in any chunking parse as they do fed
   whole, including values larger than the window, with the chunks
   sliding and growing it under partial frames. *)

let frame_gen =
  QCheck.Gen.(
    let key = map (Printf.sprintf "k%d") (int_bound 40) in
    let* opaque = int_bound 0xffff and* cas = int_bound 1_000_000 and* key = key in
    let* value =
      frequency
        [
          (6, string_size (int_bound 300));
          (1, map (fun n -> String.make n 'B') (int_range 2000 6000));
        ]
    in
    oneofl
      [
        request Binary_protocol.Get ~key ~opaque;
        request Binary_protocol.GetQ ~key ~opaque;
        request Binary_protocol.Set ~key ~value ~cas ~opaque
          ~extras:(Binary_protocol.set_extras ~flags:3 ~exptime:0);
        request Binary_protocol.Delete ~key ~opaque;
        request Binary_protocol.Noop ~opaque;
      ])

let parse_window stream ~cuts ~extra =
  let w = Protocol.Inbuf.create () in
  let p = Binary_protocol.Parser.create ~inbuf:w () in
  let results, moves =
    Window_feed.feed w ~cuts ~extra stream (fun () -> Binary_protocol.Parser.next p)
  in
  (results, Protocol.Inbuf.available w, moves)

(* Whole and chunked parses agree; returns the chunked parse's moves. *)
let window_case (frames, seed) =
  let stream = String.concat "" (List.map Binary_protocol.encode_request frames) in
  let whole, left, _ =
    parse_window stream ~cuts:[ String.length stream ] ~extra:(fun _ -> 0)
  in
  let cuts =
    Window_feed.cuts (Random.State.make [| seed |]) ~max_chunk:700 ~forced:[]
      (String.length stream)
  in
  let split, split_left, moves = parse_window stream ~cuts ~extra:Window_feed.extra in
  (whole = List.map Result.ok frames && split = whole && split_left = left && left = 0, moves)

let window_gen = QCheck.Gen.(pair (list_size (int_range 1 20) frame_gen) int)

let prop_window_split_reads =
  QCheck.Test.make ~name:"split reads parse as one feed" ~count:200
    (QCheck.make
       ~print:(fun (frames, seed) ->
         Printf.sprintf "%d frames, seed %d" (List.length frames) seed)
       window_gen)
    (fun case -> fst (window_case case))

(* The property is not vacuous: its chunkings do slide and grow the
   window under a partial frame. *)
let test_window_moves () =
  let rand = Random.State.make [| 17 |] in
  let slides = ref 0 and grows = ref 0 in
  for _ = 1 to 100 do
    let ((_, seed) as case) = QCheck.Gen.generate1 ~rand window_gen in
    let ok, moves = window_case case in
    if not ok then Alcotest.failf "chunking seed %d parsed differently" seed;
    slides := !slides + moves.Window_feed.slides;
    grows := !grows + moves.Window_feed.grows
  done;
  Alcotest.(check bool) (Printf.sprintf "%d slides" !slides) true (!slides > 0);
  Alcotest.(check bool) (Printf.sprintf "%d grows" !grows) true (!grows > 0)

let () =
  Alcotest.run "binary"
    [
      ( "codec",
        [
          Alcotest.test_case "opcode bytes" `Quick test_opcode_bytes;
          Alcotest.test_case "status ints" `Quick test_status_ints;
          Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round trip" `Quick test_response_roundtrip;
          Alcotest.test_case "incremental frame" `Quick test_incremental_frame;
          Alcotest.test_case "bad magic" `Quick test_bad_magic_rejected;
          Alcotest.test_case "u64 round trip" `Quick test_u64_roundtrip;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "set/get" `Quick test_dispatch_set_get;
          Alcotest.test_case "quiet gets" `Quick test_dispatch_quiet_get;
          Alcotest.test_case "cas via set" `Quick test_dispatch_cas_via_set;
          Alcotest.test_case "counter seeding" `Quick test_dispatch_counter_seeding;
          Alcotest.test_case "stat terminator" `Quick test_dispatch_stat_terminator;
          Alcotest.test_case "stat sections" `Quick test_dispatch_stat_sections;
          Alcotest.test_case "stats parity" `Quick test_dispatch_stats_parity;
          Alcotest.test_case "touch and gat" `Quick test_dispatch_touch_gat;
          Alcotest.test_case "misc + validation" `Quick test_dispatch_misc;
        ] );
      ( "socket",
        [
          Alcotest.test_case "binary round trip" `Quick test_socket_binary_roundtrip;
          Alcotest.test_case "counters and stats" `Quick
            test_socket_binary_counters_and_stats;
          Alcotest.test_case "text and binary share a store" `Quick
            test_socket_both_protocols_share_store;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_parser_never_crashes;
          QCheck_alcotest.to_alcotest prop_value_roundtrip;
        ] );
      ( "window",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_window_split_reads;
          Alcotest.test_case "slides and grows" `Quick test_window_moves;
        ] );
    ]
