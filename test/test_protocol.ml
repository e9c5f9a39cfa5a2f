(* memcached text protocol: encoding, incremental parsing, error recovery,
   and request/response round trips. *)

open Memcached

let parse_one input =
  let p = Protocol.Parser.create () in
  Protocol.Parser.feed p input;
  Protocol.Parser.next p

let storage ?(flags = 0) ?(exptime = 0) ?(noreply = false) key data : Protocol.storage =
  { key; flags; exptime; noreply; data }

let test_parse_get () =
  match parse_one "get foo\r\n" with
  | Some (Ok (Protocol.Get [ "foo" ])) -> ()
  | _ -> Alcotest.fail "get foo misparsed"

let test_parse_multi_get () =
  match parse_one "get a b c\r\n" with
  | Some (Ok (Protocol.Get [ "a"; "b"; "c" ])) -> ()
  | _ -> Alcotest.fail "multi-key get misparsed"

let test_parse_gets () =
  match parse_one "gets k1 k2\r\n" with
  | Some (Ok (Protocol.Gets [ "k1"; "k2" ])) -> ()
  | _ -> Alcotest.fail "gets misparsed"

let test_parse_set () =
  match parse_one "set foo 7 0 5\r\nhello\r\n" with
  | Some (Ok (Protocol.Set s)) ->
      Alcotest.(check string) "key" "foo" s.key;
      Alcotest.(check int) "flags" 7 s.flags;
      Alcotest.(check int) "exptime" 0 s.exptime;
      Alcotest.(check bool) "noreply" false s.noreply;
      Alcotest.(check string) "data" "hello" s.data
  | _ -> Alcotest.fail "set misparsed"

let test_parse_set_noreply () =
  match parse_one "set foo 0 60 2 noreply\r\nhi\r\n" with
  | Some (Ok (Protocol.Set s)) ->
      Alcotest.(check bool) "noreply" true s.noreply;
      Alcotest.(check int) "exptime" 60 s.exptime
  | _ -> Alcotest.fail "set noreply misparsed"

let test_parse_cas () =
  match parse_one "cas foo 0 0 2 99\r\nhi\r\n" with
  | Some (Ok (Protocol.Cas (s, 99))) -> Alcotest.(check string) "data" "hi" s.data
  | _ -> Alcotest.fail "cas misparsed"

let test_parse_data_with_crlf_bytes () =
  (* The data block is length-delimited: embedded CRLF must survive. *)
  match parse_one "set k 0 0 9\r\nab\r\ncd\r\n!\r\n" with
  | Some (Ok (Protocol.Set s)) -> Alcotest.(check string) "binary-ish data" "ab\r\ncd\r\n!" s.data
  | _ -> Alcotest.fail "embedded CRLF mishandled"

let test_parse_delete_incr_decr_touch () =
  (match parse_one "delete foo\r\n" with
  | Some (Ok (Protocol.Delete { key = "foo"; noreply = false })) -> ()
  | _ -> Alcotest.fail "delete misparsed");
  (match parse_one "delete foo noreply\r\n" with
  | Some (Ok (Protocol.Delete { noreply = true; _ })) -> ()
  | _ -> Alcotest.fail "delete noreply misparsed");
  (match parse_one "incr counter 5\r\n" with
  | Some (Ok (Protocol.Incr { key = "counter"; delta = 5; noreply = false })) -> ()
  | _ -> Alcotest.fail "incr misparsed");
  (match parse_one "decr counter 2 noreply\r\n" with
  | Some (Ok (Protocol.Decr { delta = 2; noreply = true; _ })) -> ()
  | _ -> Alcotest.fail "decr misparsed");
  match parse_one "touch foo 300\r\n" with
  | Some (Ok (Protocol.Touch { exptime = 300; _ })) -> ()
  | _ -> Alcotest.fail "touch misparsed"

let test_parse_admin () =
  (match parse_one "stats\r\n" with
  | Some (Ok (Protocol.Stats None)) -> ()
  | _ -> Alcotest.fail "stats misparsed");
  (match parse_one "stats rp\r\n" with
  | Some (Ok (Protocol.Stats (Some "rp"))) -> ()
  | _ -> Alcotest.fail "stats rp misparsed");
  (match parse_one "flush_all\r\n" with
  | Some (Ok (Protocol.Flush_all { noreply = false })) -> ()
  | _ -> Alcotest.fail "flush_all misparsed");
  (match parse_one "version\r\n" with
  | Some (Ok Protocol.Version) -> ()
  | _ -> Alcotest.fail "version misparsed");
  match parse_one "quit\r\n" with
  | Some (Ok Protocol.Quit) -> ()
  | _ -> Alcotest.fail "quit misparsed"

let test_parse_errors () =
  (match parse_one "bogus command\r\n" with
  | Some (Error "ERROR") -> ()
  | _ -> Alcotest.fail "unknown verb should be ERROR");
  (match parse_one "set foo bar baz qux\r\n" with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "malformed set accepted");
  (match parse_one "get\r\n" with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "get without keys accepted");
  (match parse_one "incr k notanumber\r\n" with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "non-numeric delta accepted");
  match parse_one "set k 0 0 3\r\nabcd\r\n" with
  | Some (Error "bad data chunk") -> ()
  | other ->
      Alcotest.failf "unterminated data chunk accepted: %s"
        (match other with
        | None -> "None"
        | Some (Ok _) -> "Ok"
        | Some (Error e) -> e)

let test_parser_resyncs_after_error () =
  let p = Protocol.Parser.create () in
  Protocol.Parser.feed p "garbage here\r\nget ok\r\n";
  (match Protocol.Parser.next p with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "garbage not rejected");
  match Protocol.Parser.next p with
  | Some (Ok (Protocol.Get [ "ok" ])) -> ()
  | _ -> Alcotest.fail "parser did not resync"

let test_incremental_byte_feeding () =
  let p = Protocol.Parser.create () in
  let full = "set incr-key 3 0 5\r\nworld\r\nget incr-key\r\n" in
  let results = ref [] in
  String.iter
    (fun c ->
      Protocol.Parser.feed p (String.make 1 c);
      let rec drain () =
        match Protocol.Parser.next p with
        | Some r ->
            results := r :: !results;
            drain ()
        | None -> ()
      in
      drain ())
    full;
  match List.rev !results with
  | [ Ok (Protocol.Set s); Ok (Protocol.Get [ "incr-key" ]) ] ->
      Alcotest.(check string) "data" "world" s.data
  | _ -> Alcotest.failf "byte-at-a-time parse produced %d results" (List.length !results)

let test_pipelined_requests () =
  let p = Protocol.Parser.create () in
  Protocol.Parser.feed p "get a\r\nget b\r\nset c 0 0 1\r\nx\r\n";
  let seen = ref 0 in
  let rec drain () =
    match Protocol.Parser.next p with
    | Some (Ok _) ->
        incr seen;
        drain ()
    | Some (Error e) -> Alcotest.failf "unexpected error: %s" e
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "three pipelined requests" 3 !seen;
  Alcotest.(check int) "buffer drained" 0 (Protocol.Parser.buffered_bytes p)

let test_key_validation () =
  Alcotest.(check bool) "normal key" true (Protocol.request_key_valid "foo:123");
  Alcotest.(check bool) "empty" false (Protocol.request_key_valid "");
  Alcotest.(check bool) "space" false (Protocol.request_key_valid "a b");
  Alcotest.(check bool) "control char" false (Protocol.request_key_valid "a\nb");
  Alcotest.(check bool) "250 bytes ok" true
    (Protocol.request_key_valid (String.make 250 'k'));
  Alcotest.(check bool) "251 bytes too long" false
    (Protocol.request_key_valid (String.make 251 'k'))

(* Round trip: encode_request then parse yields the original request. *)
let requests_for_roundtrip : Protocol.request list =
  [
    Protocol.Get [ "alpha" ];
    Protocol.Get [ "a"; "b"; "c" ];
    Protocol.Gets [ "x" ];
    Protocol.Set (storage "k" "value");
    Protocol.Add (storage ~flags:9 "k" "v");
    Protocol.Replace (storage ~exptime:120 "k" "v");
    Protocol.Append (storage "k" "suffix");
    Protocol.Prepend (storage "k" "prefix");
    Protocol.Cas (storage "k" "v", 1234);
    Protocol.Delete { key = "k"; noreply = false };
    Protocol.Incr { key = "k"; delta = 3; noreply = false };
    Protocol.Decr { key = "k"; delta = 1; noreply = true };
    Protocol.Touch { key = "k"; exptime = 30; noreply = false };
    Protocol.Stats None;
    Protocol.Stats (Some "rp");
    Protocol.Flush_all { noreply = false };
    Protocol.Version;
    Protocol.Quit;
  ]

let test_request_roundtrip () =
  List.iter
    (fun request ->
      match parse_one (Protocol.encode_request request) with
      | Some (Ok parsed) ->
          if parsed <> request then
            Alcotest.failf "round trip changed: %s"
              (Protocol.encode_request request)
      | Some (Error e) ->
          Alcotest.failf "round trip error %s on %s" e
            (Protocol.encode_request request)
      | None ->
          Alcotest.failf "round trip incomplete on %s"
            (Protocol.encode_request request))
    requests_for_roundtrip

let responses_for_roundtrip : Protocol.response list =
  [
    Protocol.Values [];
    Protocol.Values
      [ { vkey = "k"; vflags = 3; vdata = "hello"; vcas = None } ];
    Protocol.Values
      [
        { vkey = "a"; vflags = 0; vdata = "1"; vcas = Some 7 };
        { vkey = "b"; vflags = 1; vdata = "two\r\nlines"; vcas = Some 8 };
      ];
    Protocol.Stored;
    Protocol.Not_stored;
    Protocol.Exists;
    Protocol.Not_found;
    Protocol.Deleted;
    Protocol.Touched;
    Protocol.Ok_reply;
    Protocol.Version_reply "1.2.3";
    Protocol.Number 42;
    Protocol.Stats_reply [ ("cmd_get", "10"); ("uptime", "3 days") ];
    Protocol.Client_error "bad data chunk";
    Protocol.Server_error "out of memory";
    Protocol.Error_reply;
  ]

let test_response_roundtrip () =
  List.iter
    (fun response ->
      let rp = Protocol.Response_parser.create () in
      Protocol.Response_parser.feed rp (Protocol.encode_response response);
      match Protocol.Response_parser.next rp with
      | Some (Ok parsed) ->
          if parsed <> response then
            Alcotest.failf "response round trip changed: %s"
              (Protocol.encode_response response)
      | Some (Error e) -> Alcotest.failf "response round trip error: %s" e
      | None ->
          Alcotest.failf "response round trip incomplete: %s"
            (Protocol.encode_response response))
    responses_for_roundtrip

let test_response_incremental () =
  let rp = Protocol.Response_parser.create () in
  let encoded =
    Protocol.encode_response
      (Protocol.Values [ { vkey = "k"; vflags = 0; vdata = "abcdef"; vcas = None } ])
  in
  String.iteri
    (fun i c ->
      Protocol.Response_parser.feed rp (String.make 1 c);
      match Protocol.Response_parser.next rp with
      | Some (Ok (Protocol.Values [ v ])) ->
          if i <> String.length encoded - 1 then
            Alcotest.fail "value completed early";
          Alcotest.(check string) "data" "abcdef" v.vdata
      | Some (Ok _) | Some (Error _) ->
          if i <> String.length encoded - 1 then () else Alcotest.fail "wrong result"
      | None -> ())
    encoded

(* Property: arbitrary binary payloads survive the storage round trip. *)
let prop_binary_data_roundtrip =
  QCheck.Test.make ~name:"set data round trips any bytes" ~count:300
    QCheck.(string_of_size Gen.(int_bound 200))
    (fun data ->
      let request = Protocol.Set (storage "key" data) in
      match parse_one (Protocol.encode_request request) with
      | Some (Ok (Protocol.Set s)) -> s.data = data
      | _ -> false)

let prop_values_roundtrip =
  QCheck.Test.make ~name:"VALUE payloads round trip any bytes" ~count:300
    QCheck.(pair (string_of_size Gen.(int_bound 100)) small_nat)
    (fun (data, flags) ->
      let response =
        Protocol.Values [ { vkey = "k"; vflags = flags; vdata = data; vcas = None } ]
      in
      let rp = Protocol.Response_parser.create () in
      Protocol.Response_parser.feed rp (Protocol.encode_response response);
      match Protocol.Response_parser.next rp with
      | Some (Ok parsed) -> parsed = response
      | _ -> false)

(* --- fuzzing --- *)

(* Arbitrary bytes must never crash the parser; it must either produce
   results or wait for more input, and buffered bytes stay bounded by what
   was fed. *)
let prop_parser_never_crashes =
  QCheck.Test.make ~name:"request parser survives arbitrary bytes" ~count:500
    QCheck.(string_of_size Gen.(int_bound 300))
    (fun garbage ->
      let p = Protocol.Parser.create () in
      Protocol.Parser.feed p garbage;
      let rec drain budget =
        if budget = 0 then true
        else
          match Protocol.Parser.next p with
          | Some _ -> drain (budget - 1)
          | None -> true
      in
      drain 1000 && Protocol.Parser.buffered_bytes p <= String.length garbage)

let prop_response_parser_never_crashes =
  QCheck.Test.make ~name:"response parser survives arbitrary bytes" ~count:500
    QCheck.(string_of_size Gen.(int_bound 300))
    (fun garbage ->
      let p = Protocol.Response_parser.create () in
      Protocol.Response_parser.feed p garbage;
      let rec drain budget =
        if budget = 0 then true
        else
          match Protocol.Response_parser.next p with
          | Some _ -> drain (budget - 1)
          | None -> true
      in
      drain 1000)

(* Splitting a valid request stream at arbitrary points must not change the
   parse. *)
let prop_split_invariance =
  QCheck.Test.make ~name:"parse is split-invariant" ~count:300
    QCheck.(pair (string_of_size Gen.(int_bound 60)) (int_bound 100))
    (fun (data, split_seed) ->
      let stream =
        Protocol.encode_request (Protocol.Set (storage "k" data))
        ^ Protocol.encode_request (Protocol.Get [ "k" ])
      in
      let parse_with_splits chunk_of =
        let p = Protocol.Parser.create () in
        let results = ref [] in
        let rec feed_from i =
          if i < String.length stream then begin
            let len = min (chunk_of i) (String.length stream - i) in
            Protocol.Parser.feed p (String.sub stream i len);
            let rec drain () =
              match Protocol.Parser.next p with
              | Some r ->
                  results := r :: !results;
                  drain ()
              | None -> ()
            in
            drain ();
            feed_from (i + len)
          end
        in
        feed_from 0;
        List.rev !results
      in
      let whole = parse_with_splits (fun _ -> String.length stream) in
      let chopped = parse_with_splits (fun i -> 1 + ((i + split_seed) mod 7)) in
      whole = chopped)

let fuzz_tests =
  List.map (QCheck_alcotest.to_alcotest ~long:false)
    [
      prop_parser_never_crashes;
      prop_response_parser_never_crashes;
      prop_split_invariance;
    ]

(* --- bounded line buffering --- *)

let test_oversized_line_rejected () =
  let p = Protocol.Parser.create ~max_line:64 () in
  (* Multi-chunk garbage line far beyond the bound, then a valid command. *)
  let chunk = String.make 1024 'x' in
  for _ = 1 to 3 do
    Protocol.Parser.feed p chunk
  done;
  (match Protocol.Parser.next p with
  | Some (Error "line too long") -> ()
  | _ -> Alcotest.fail "expected line-too-long error");
  Alcotest.(check bool) "oversized bytes not retained" true
    (Protocol.Parser.buffered_bytes p <= 64);
  Alcotest.(check (option bool)) "waits for resync" None
    (Option.map Result.is_ok (Protocol.Parser.next p));
  Protocol.Parser.feed p (String.make 100 'y' ^ "\r\nget ok\r\n");
  (match Protocol.Parser.next p with
  | Some (Ok (Protocol.Get [ "ok" ])) -> ()
  | _ -> Alcotest.fail "parser did not resynchronise at the next CRLF")

let test_oversized_multi_mb_garbage () =
  let p = Protocol.Parser.create () in
  (* Several MB with no CRLF anywhere: one error, bounded memory. *)
  let mb = String.make (1024 * 1024) 'z' in
  let errors = ref 0 in
  for _ = 1 to 4 do
    Protocol.Parser.feed p mb;
    match Protocol.Parser.next p with
    | Some (Error "line too long") -> incr errors
    | Some _ -> Alcotest.fail "garbage parsed as a request"
    | None -> ()
  done;
  Alcotest.(check int) "reported exactly once" 1 !errors;
  Alcotest.(check bool) "buffer stays bounded" true
    (Protocol.Parser.buffered_bytes p < 16 * 1024);
  Protocol.Parser.feed p "\r\nversion\r\n";
  match Protocol.Parser.next p with
  | Some (Ok Protocol.Version) -> ()
  | _ -> Alcotest.fail "no recovery after multi-MB garbage"

let test_oversized_terminated_line () =
  let p = Protocol.Parser.create ~max_line:32 () in
  Protocol.Parser.feed p ("get " ^ String.make 100 'k' ^ "\r\nstats\r\n");
  (match Protocol.Parser.next p with
  | Some (Error "line too long") -> ()
  | _ -> Alcotest.fail "terminated oversized line accepted");
  match Protocol.Parser.next p with
  | Some (Ok (Protocol.Stats None)) -> ()
  | _ -> Alcotest.fail "next command lost"

(* A line of exactly [max_line] bytes is accepted however it is split,
   including between its '\r' and '\n'. *)
let test_max_line_split_after_cr () =
  let p = Protocol.Parser.create ~max_line:8 () in
  Protocol.Parser.feed p "get abcd\r";
  Alcotest.(check bool) "waits for the LF" true (Protocol.Parser.next p = None);
  Protocol.Parser.feed p "\n";
  match Protocol.Parser.next p with
  | Some (Ok (Protocol.Get [ "abcd" ])) -> ()
  | _ -> Alcotest.fail "max_line-byte line rejected when split after its CR"

let test_crlf_split_across_discard_chunks () =
  let p = Protocol.Parser.create ~max_line:16 () in
  Protocol.Parser.feed p (String.make 40 'a' ^ "\r");
  (match Protocol.Parser.next p with
  | Some (Error "line too long") -> ()
  | _ -> Alcotest.fail "expected line-too-long error");
  (* The terminator arrives split across chunks: '\r' above, '\n' now. *)
  Protocol.Parser.feed p "\nversion\r\n";
  match Protocol.Parser.next p with
  | Some (Ok Protocol.Version) -> ()
  | _ -> Alcotest.fail "CRLF split across discard boundary missed"

let test_max_line_leaves_data_blocks_alone () =
  let p = Protocol.Parser.create ~max_line:64 () in
  let data = String.make 4096 'd' in
  Protocol.Parser.feed p (Printf.sprintf "set big 0 0 %d\r\n%s\r\n" 4096 data);
  match Protocol.Parser.next p with
  | Some (Ok (Protocol.Set s)) ->
      Alcotest.(check int) "data block intact" 4096 (String.length s.Protocol.data)
  | _ -> Alcotest.fail "data block larger than max_line rejected"

(* get/gets lines are scanned in place; whatever the line, the result must
   be the general tokenizer's: the space-separated tokens after the verb,
   at least one, every one a valid key. Checked whole and split across two
   feeds at every point. *)
let reference_get line =
  match List.filter (fun t -> t <> "") (String.split_on_char ' ' line) with
  | (("get" | "gets") as verb) :: keys ->
      if keys = [] then Error ("bad " ^ verb ^ ": no keys")
      else if List.for_all Protocol.request_key_valid keys then
        Ok (if verb = "get" then Protocol.Get keys else Protocol.Gets keys)
      else Error "bad key"
  | _ -> Error "ERROR" (* a verb glued to a token: unknown command *)

let get_line_gen =
  QCheck.Gen.(
    let token =
      frequency
        [
          (6, string_size ~gen:(oneofl [ 'a'; 'b'; '7'; ':' ]) (int_range 1 6));
          (1, oneofl [ "\t"; "a\x7fb"; "x\ry"; String.make 251 'k'; String.make 250 'k'; "" ]);
        ]
    in
    map3
      (fun lead verb toks -> lead ^ verb ^ String.concat " " toks)
      (oneofl [ ""; ""; ""; " " ])
      (oneofl [ "get "; "gets "; "get"; "gets"; "get  " ])
      (list_size (int_bound 4) token))

let prop_get_scan_matches_tokenizer =
  QCheck.Test.make ~name:"get/gets scan matches the tokenizer" ~count:500
    (QCheck.make ~print:String.escaped get_line_gen)
    (fun line ->
      let want = reference_get line in
      let input = line ^ "\r\n" in
      let check got =
        match (got, want) with
        | Some (Ok r), Ok w when r = w -> ()
        | Some (Error e), Error w when e = w -> ()
        | _ -> QCheck.Test.fail_reportf "%S parsed differently" line
      in
      check (parse_one input);
      for cut = 0 to String.length input do
        let p = Protocol.Parser.create () in
        Protocol.Parser.feed p (String.sub input 0 cut);
        match Protocol.Parser.next p with
        | Some r -> if cut = String.length input then check (Some r)
        | None ->
            Protocol.Parser.feed p (String.sub input cut (String.length input - cut));
            check (Protocol.Parser.next p)
      done;
      true)

let test_get_line_too_long () =
  let p = Protocol.Parser.create ~max_line:20 () in
  Protocol.Parser.feed p "get aaaaaaaa bbbbbbbb cccccccc\r\nget ok\r\n";
  (match Protocol.Parser.next p with
  | Some (Error "line too long") -> ()
  | _ -> Alcotest.fail "over-long get line accepted");
  match Protocol.Parser.next p with
  | Some (Ok (Protocol.Get [ "ok" ])) -> ()
  | _ -> Alcotest.fail "next get lost"

(* Storage lines whose data block is complete are scanned in place; the
   result must be the tokenizer's. Fed one byte at a time, a storage
   line always takes the tokenizer (its data has not arrived when the
   header's CRLF does), so that feed is the reference. Every request the
   parser yields, and the bytes it leaves buffered, must agree with it —
   fed whole, and split across two feeds at every point. *)
let drain p =
  let rec go acc =
    match Protocol.Parser.next p with Some r -> go (r :: acc) | None -> acc
  in
  go []

let parse_feeds ~max_line chunks =
  let p = Protocol.Parser.create ~max_line () in
  let results =
    List.concat_map
      (fun chunk ->
        Protocol.Parser.feed p chunk;
        List.rev (drain p))
      chunks
  in
  (results, Protocol.Parser.buffered_bytes p)

let bytewise input = List.init (String.length input) (fun i -> String.make 1 input.[i])

let set_scan_agrees ~max_line input =
  let want = parse_feeds ~max_line (bytewise input) in
  parse_feeds ~max_line [ input ] = want
  && List.for_all
       (fun cut ->
         parse_feeds ~max_line
           [ String.sub input 0 cut; String.sub input cut (String.length input - cut) ]
         = want)
       (List.init (String.length input + 1) Fun.id)

let set_input_gen =
  QCheck.Gen.(
    let number =
      frequency
        [
          (8, map string_of_int (int_bound 5000));
          ( 1,
            oneofl
              [ "-5"; "+5"; "0x10"; "007"; "999999999999999999"; "1000000000000000000"; "" ] );
        ]
    in
    let key =
      frequency
        [
          (8, string_size ~gen:(oneofl [ 'a'; 'z'; '7'; ':' ]) (int_range 1 12));
          (1, oneofl [ String.make 250 'k'; String.make 251 'k'; "a\x7fb"; "a\tb"; "" ]);
        ]
    in
    let sep = frequency [ (12, return " "); (1, return "  ") ] in
    let* lead = frequency [ (12, return ""); (1, return " ") ] in
    let* key = key and* flags = number and* exptime = number in
    let* data = string_size ~gen:(oneofl [ 'd'; '\r'; '\n'; ' ' ]) (int_bound 12) in
    let* bytes =
      frequency [ (6, return (string_of_int (String.length data))); (1, number) ]
    in
    let* noreply =
      frequency [ (6, return ""); (2, oneofl [ " noreply"; "  noreply"; " noreplyx"; " x" ]) ]
    in
    let* ending = frequency [ (8, return "\r\n"); (1, oneofl [ "XY"; ""; "\r" ]) ] in
    let* s1 = sep and* s2 = sep and* s3 = sep and* s4 = sep in
    let* next = oneofl [ ""; "get k\r\n"; "set q 1 2 1\r\nv\r\n" ] in
    let* max_line = oneofl [ 8192; 24; 40; 280 ] in
    return
      ( max_line,
        String.concat ""
          [ lead; "set"; s1; key; s2; flags; s3; exptime; s4; bytes; noreply; "\r\n"; data; ending; next ] ))

let prop_set_scan_matches_tokenizer =
  QCheck.Test.make ~name:"set scan matches the tokenizer" ~count:300
    (QCheck.make
       ~print:(fun (max_line, input) -> Printf.sprintf "max_line %d: %S" max_line input)
       set_input_gen)
    (fun (max_line, input) -> set_scan_agrees ~max_line input)

(* The cases the scan must hand to the tokenizer, each checked by name. *)
let test_set_scan_fallbacks () =
  let long_key = String.make 251 'k' in
  (* a well-formed set line of 294 bytes, then its block and a get *)
  let over_long =
    Printf.sprintf "set %s %s %s 5\r\nhello\r\nget k\r\n" (String.make 250 'k')
      (String.make 18 '1') (String.make 18 '2')
  in
  List.iter
    (fun input ->
      if not (set_scan_agrees ~max_line:280 input) then
        Alcotest.failf "%S parsed differently" input)
    [
      "set k 1 2 5\r\nhello\r\n";
      "set k 1 2 5 noreply\r\nhello\r\n";
      "set k 1 -2 5\r\nhello\r\n";
      "set k +1 2 5\r\nhello\r\n";
      "set k 0x1 2 5\r\nhello\r\n";
      "set k 1 2 0x5\r\nhello\r\n";
      "set k 1 2 -5\r\nhello\r\n";
      "set k 1000000000000000000 2 5\r\nhello\r\n";
      "set k 999999999999999999 2 5\r\nhello\r\n";
      "set  k 1 2 5\r\nhello\r\n";
      "set k 1  2 5\r\nhello\r\n";
      "set k 1 2 5 \r\nhello\r\n";
      "set k 1 2 5\r\nhelloXY";
      "set k 1 2 5\r\nhel";
      "set " ^ long_key ^ " 1 2 5\r\nhello\r\n";
      "set " ^ String.make 250 'k' ^ " 1 2 5\r\nhello\r\n";
      over_long;
    ];
  match parse_feeds ~max_line:280 [ over_long ] with
  | [ Error "line too long"; Error "ERROR"; Ok (Protocol.Get [ "k" ]) ], 0 -> ()
  | _ -> Alcotest.fail "over-long set line accepted"

(* Minor words [f] allocates, net of the measurement itself; the least of
   a few runs. *)
let minor_words f =
  let once g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  let least g = List.fold_left min infinity (List.init 5 (fun _ -> g ())) in
  int_of_float (least (fun () -> once f) -. least (fun () -> once ignore))

(* Allocation gates (no timing involved). Parsing one get line allocates
   its key (3 words for 14 bytes), the key list (3), [Get] (2), [Ok] (2)
   and [Some] (2); encoding a VALUE reply into a buffer with room
   allocates nothing. *)
let test_parse_get_allocation () =
  let p = Protocol.Parser.create () in
  Protocol.Parser.feed p (String.concat "" (List.init 16 (fun _ -> "get key:0000012345\r\n")));
  let next () =
    match Protocol.Parser.next p with
    | Some (Ok (Protocol.Get [ _ ])) -> ()
    | _ -> Alcotest.fail "get line misparsed"
  in
  let words = minor_words next in
  Alcotest.(check bool) (Printf.sprintf "%d words <= 13" words) true (words <= 13)

(* One set line with a 100 B block: the key (3 words), the data (14),
   the [storage] record (6), [Set] (2), [Ok] (2) and [Some] (2). *)
let test_parse_set_allocation () =
  let p = Protocol.Parser.create () in
  let data = String.make 100 'd' in
  Protocol.Parser.feed p
    (String.concat "" (List.init 16 (fun _ -> "set key:0000012345 0 0 100\r\n" ^ data ^ "\r\n")));
  let next () =
    match Protocol.Parser.next p with
    | Some (Ok (Protocol.Set { data = d; _ })) when String.length d = 100 -> ()
    | _ -> Alcotest.fail "set line misparsed"
  in
  let words = minor_words next in
  Alcotest.(check bool) (Printf.sprintf "%d words <= 29" words) true (words <= 29)

let test_encode_value_allocation () =
  let buf = Buffer.create 4096 in
  let reply =
    Protocol.Values
      [ { vkey = "key:0000012345"; vflags = 42; vdata = String.make 100 'v'; vcas = Some 7 } ]
  in
  let encode () =
    Buffer.clear buf;
    Protocol.encode_response_into buf reply
  in
  encode ();
  Alcotest.(check string) "header digits"
    ("VALUE key:0000012345 42 100 7\r\n" ^ String.make 100 'v' ^ "\r\nEND\r\n")
    (Buffer.contents buf);
  let words = minor_words encode in
  Alcotest.(check bool) (Printf.sprintf "%d words <= 1" words) true (words <= 1)

let test_encode_numbers () =
  List.iter
    (fun n ->
      Alcotest.(check string) (string_of_int n) (string_of_int n ^ "\r\n")
        (Protocol.encode_response (Protocol.Number n)))
    [ 0; 7; 10; 99; 100; 4096; max_int; -1; min_int ]

(* --- the input window ---

   Requests read into the window in any chunking parse as they do fed
   whole: the stream mixes get/gets/set/delete lines, data blocks larger
   than the window, a binary frame (text garbage here) and a line of
   exactly [max_line] bytes cut between its CR and LF; the chunks slide
   and grow the window under partial requests. *)

let window_max_line = 120

let window_part_gen =
  QCheck.Gen.(
    let key = map (Printf.sprintf "k%d") (int_bound 40) in
    let keys = list_size (int_range 1 3) key >|= String.concat " " in
    let set key data =
      Printf.sprintf "set %s 5 0 %d\r\n%s\r\n" key (String.length data) data
    in
    frequency
      [
        (4, keys >|= Printf.sprintf "get %s\r\n");
        (2, keys >|= Printf.sprintf "gets %s\r\n");
        (3, map2 set key (string_size ~gen:(oneofl [ 'a'; '\r'; '\n'; ' ' ]) (int_bound 200)));
        (1, map2 set key (map (fun n -> String.make n 'B') (int_range 2000 6000)));
        (2, key >|= Printf.sprintf "delete %s\r\n");
        ( 1,
          key >|= fun key ->
          Binary_protocol.encode_request
            { opcode = Binary_protocol.Get; key; value = ""; extras = ""; opaque = 1; cas = 0 } );
      ])

(* The stream, the offset just past the [max_line]-byte line's CR, and a
   chunking seed. *)
let window_stream_gen =
  QCheck.Gen.(
    let* before = list_size (int_bound 10) window_part_gen
    and* after = list_size (int_bound 10) window_part_gen
    and* seed = int in
    let line = "get " ^ String.make (window_max_line - 4) 'm' in
    let head = String.concat "" before ^ line ^ "\r" in
    return (head ^ "\n" ^ String.concat "" after, String.length head, seed))

let parse_window stream ~cuts ~extra =
  let w = Protocol.Inbuf.create () in
  let p = Protocol.Parser.create ~max_line:window_max_line ~inbuf:w () in
  let results, moves =
    Window_feed.feed w ~cuts ~extra stream (fun () -> Protocol.Parser.next p)
  in
  (results, Protocol.Inbuf.available w, moves)

let window_case (stream, cr, seed) =
  let whole, left, _ =
    parse_window stream ~cuts:[ String.length stream ] ~extra:(fun _ -> 0)
  in
  let cuts =
    Window_feed.cuts (Random.State.make [| seed |]) ~max_chunk:700 ~forced:[ cr ]
      (String.length stream)
  in
  let split, split_left, moves = parse_window stream ~cuts ~extra:Window_feed.extra in
  (split = whole && split_left = left, moves)

let prop_window_split_reads =
  QCheck.Test.make ~name:"split reads parse as one feed" ~count:200
    (QCheck.make
       ~print:(fun (s, cr, seed) -> Printf.sprintf "cr at %d, seed %d: %S" cr seed s)
       window_stream_gen)
    (fun case -> fst (window_case case))

(* The property is not vacuous: its chunkings do slide and grow the
   window under a partial request. *)
let test_window_moves () =
  let rand = Random.State.make [| 17 |] in
  let slides = ref 0 and grows = ref 0 in
  for _ = 1 to 100 do
    let case = QCheck.Gen.generate1 ~rand window_stream_gen in
    let ok, moves = window_case case in
    let _, _, seed = case in
    if not ok then Alcotest.failf "chunking seed %d parsed differently" seed;
    slides := !slides + moves.Window_feed.slides;
    grows := !grows + moves.Window_feed.grows
  done;
  Alcotest.(check bool) (Printf.sprintf "%d slides" !slides) true (!slides > 0);
  Alcotest.(check bool) (Printf.sprintf "%d grows" !grows) true (!grows > 0)

(* A window grown past the retain size is released once it drains; one
   at or below it is kept. *)
let test_window_retain () =
  let w = Protocol.Inbuf.create () in
  Alcotest.(check int) "no storage before the first byte" 0 (Protocol.Inbuf.capacity w);
  let p = Protocol.Parser.create ~inbuf:w () in
  Protocol.Parser.feed p "get a\r\n";
  ignore (Protocol.Parser.next p);
  Alcotest.(check bool) "small window kept" true (Protocol.Inbuf.capacity w > 0);
  let data = String.make (2 * Protocol.Inbuf.retain_bytes) 'x' in
  Protocol.Parser.feed p
    (Printf.sprintf "set big 0 0 %d\r\n%s\r\n" (String.length data) data);
  Alcotest.(check bool) "grown" true (Protocol.Inbuf.capacity w > Protocol.Inbuf.retain_bytes);
  (match Protocol.Parser.next p with
  | Some (Ok (Protocol.Set { data = d; _ })) ->
      Alcotest.(check bool) "block intact" true (d = data)
  | _ -> Alcotest.fail "large set misparsed");
  Alcotest.(check int) "released once drained" 0 (Protocol.Inbuf.capacity w)

let () =
  Alcotest.run "protocol"
    [
      ( "request parsing",
        [
          Alcotest.test_case "get" `Quick test_parse_get;
          Alcotest.test_case "multi get" `Quick test_parse_multi_get;
          Alcotest.test_case "gets" `Quick test_parse_gets;
          Alcotest.test_case "set" `Quick test_parse_set;
          Alcotest.test_case "set noreply" `Quick test_parse_set_noreply;
          Alcotest.test_case "cas" `Quick test_parse_cas;
          Alcotest.test_case "data with CRLF bytes" `Quick
            test_parse_data_with_crlf_bytes;
          Alcotest.test_case "delete/incr/decr/touch" `Quick
            test_parse_delete_incr_decr_touch;
          Alcotest.test_case "admin commands" `Quick test_parse_admin;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "resync after error" `Quick
            test_parser_resyncs_after_error;
          Alcotest.test_case "byte-at-a-time" `Quick test_incremental_byte_feeding;
          Alcotest.test_case "pipelining" `Quick test_pipelined_requests;
          Alcotest.test_case "key validation" `Quick test_key_validation;
          Alcotest.test_case "oversized line rejected" `Quick
            test_oversized_line_rejected;
          Alcotest.test_case "multi-MB garbage" `Quick
            test_oversized_multi_mb_garbage;
          Alcotest.test_case "oversized terminated line" `Quick
            test_oversized_terminated_line;
          Alcotest.test_case "CRLF split across discard" `Quick
            test_crlf_split_across_discard_chunks;
          Alcotest.test_case "max_line line split after CR" `Quick
            test_max_line_split_after_cr;
          Alcotest.test_case "data blocks unaffected" `Quick
            test_max_line_leaves_data_blocks_alone;
          Alcotest.test_case "over-long get line" `Quick test_get_line_too_long;
          QCheck_alcotest.to_alcotest prop_get_scan_matches_tokenizer;
          Alcotest.test_case "set scan fallbacks" `Quick test_set_scan_fallbacks;
          QCheck_alcotest.to_alcotest prop_set_scan_matches_tokenizer;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "parse one get line" `Quick test_parse_get_allocation;
          Alcotest.test_case "encode one 100 B value" `Quick test_encode_value_allocation;
          Alcotest.test_case "number digits" `Quick test_encode_numbers;
          Alcotest.test_case "parse one set line" `Quick test_parse_set_allocation;
        ] );
      ( "round trips",
        [
          Alcotest.test_case "requests" `Quick test_request_roundtrip;
          Alcotest.test_case "responses" `Quick test_response_roundtrip;
          Alcotest.test_case "incremental response" `Quick test_response_incremental;
          QCheck_alcotest.to_alcotest prop_binary_data_roundtrip;
          QCheck_alcotest.to_alcotest prop_values_roundtrip;
        ] );
      ("fuzz", fuzz_tests);
      ( "input window",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_window_split_reads;
          Alcotest.test_case "slides and grows" `Quick test_window_moves;
          Alcotest.test_case "retain size" `Quick test_window_retain;
        ] );
    ]
