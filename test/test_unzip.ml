(* White-box tests of the expansion unzip state machine.

   We build zipped chains by hand (nodes labelled with their destination
   bucket in [hash]), run [Unzip.step] to completion, and check after every
   step the invariant readers rely on: starting from each destination's
   first node, the chain still reaches every node of that destination. A
   chain's unzip position is a link; [Null] means done. *)

let dest (n : (int, string) Rp_list.node) = Rp_list.hash n

(* Build a chain from a destination pattern, e.g. [0;0;1;0;1;1]. Returns the
   head link and all nodes in order. *)
let build pattern =
  let nodes =
    List.mapi
      (fun i d ->
        Rp_list.make_node ~hash:d ~key:i ~value:(Printf.sprintf "n%d" i)
          ~next:Rp_list.Null ())
      pattern
  in
  let rec link = function
    | a :: (b :: _ as rest) ->
        Rp_list.set_next a b;
        link rest
    | [ _ ] | [] -> ()
  in
  link nodes;
  ((match nodes with [] -> Rp_list.Null | n :: _ -> n), nodes)

(* Keys of destination [d] reachable from link, in order. *)
let reachable_keys ?(dest = dest) link d =
  let acc = ref [] in
  Rp_list.iter_links
    ~f:(fun n -> if dest n = d then acc := Rp_list.key n :: !acc)
    link;
  List.rev !acc

let first_of_dest ?(dest = dest) nodes d =
  List.find_opt (fun n -> dest n = d) nodes

let expected_keys pattern d =
  List.mapi (fun i x -> (i, x)) pattern
  |> List.filter_map (fun (i, x) -> if x = d then Some i else None)

let is_done = function Rp_list.Null -> true | Rp_list.Node _ -> false

(* Run the unzip to completion, checking completeness after every step.
   [pattern] lists the nodes' hashes, [dest] maps a node to one of
   [dests]. *)
let unzip_and_check ?(dest = dest) ?(dests = [ 0; 1 ]) pattern =
  let head, nodes = build pattern in
  let pattern = List.map dest nodes in
  let pos = ref head in
  let check_complete context =
    List.iter
      (fun d ->
        match first_of_dest ~dest nodes d with
        | None -> ()
        | Some first ->
            let got = reachable_keys ~dest first d in
            let want = expected_keys pattern d in
            if got <> want then
              Alcotest.failf "%s: dest %d sees %s, wants %s" context d
                (String.concat "," (List.map string_of_int got))
                (String.concat "," (List.map string_of_int want)))
      dests
  in
  check_complete "pre-unzip";
  let steps = ref 0 in
  while not (is_done !pos) do
    pos := Unzip.step ~dest !pos;
    incr steps;
    check_complete (Printf.sprintf "after step %d" !steps);
    if !steps > 10 * List.length pattern + 10 then
      Alcotest.fail "unzip did not terminate"
  done;
  (* Post-condition: both sub-chains are precise, and between them they
     hold every node exactly once. *)
  let held =
    List.concat_map
      (fun d ->
        match first_of_dest ~dest nodes d with
        | None -> []
        | Some first ->
            if not (Unzip.chain_is_precise ~dest first) then
              Alcotest.failf "dest %d chain still zipped" d;
            reachable_keys ~dest first d)
      dests
  in
  if List.sort compare held <> List.init (List.length nodes) Fun.id then
    Alcotest.failf "unzipped chains hold %d nodes of %d" (List.length held)
      (List.length nodes);
  !steps

let test_empty_chain () =
  Alcotest.(check bool) "empty starts done" true (is_done Rp_list.Null)

let test_single_node () =
  let head, _ = build [ 0 ] in
  Alcotest.(check bool) "single node done in one step" true
    (is_done (Unzip.step ~dest head))

let test_already_precise () =
  let steps = unzip_and_check [ 0; 0; 0; 0 ] in
  Alcotest.(check int) "no splices for precise chain" 1 steps

let test_alternating () = ignore (unzip_and_check [ 0; 1; 0; 1; 0; 1 ])
let test_runs () = ignore (unzip_and_check [ 0; 0; 1; 1; 0; 0; 1; 1 ])
let test_one_interloper () = ignore (unzip_and_check [ 0; 0; 0; 1; 0; 0 ])
let test_other_first () = ignore (unzip_and_check [ 1; 0; 0; 1; 1; 0 ])
let test_paper_example () =
  (* The slides' example: all-bucket chain 1 2 3 4 splitting odd/even. *)
  ignore (unzip_and_check [ 1; 0; 1; 0 ])

let test_step_on_done_is_done () =
  Alcotest.(check bool) "step Null = Null" true
    (is_done (Unzip.step ~dest Rp_list.Null))

let test_chain_is_precise () =
  let zipped, _ = build [ 0; 1; 0 ] in
  let precise, _ = build [ 1; 1; 1 ] in
  Alcotest.(check bool) "zipped detected" false (Unzip.chain_is_precise ~dest zipped);
  Alcotest.(check bool) "precise detected" true (Unzip.chain_is_precise ~dest precise);
  Alcotest.(check bool) "empty precise" true
    (Unzip.chain_is_precise ~dest Rp_list.Null)

let prop_any_pattern_unzips =
  QCheck.Test.make ~name:"unzip preserves completeness on any pattern" ~count:500
    QCheck.(list_of_size Gen.(int_bound 24) (int_bound 1))
    (fun pattern ->
      ignore (unzip_and_check pattern);
      true)

(* A zipped chain as an expansion leaves it: every node hashes to parent
   bucket [p] of a table of [half] buckets, and its destination at the
   doubled size is [p] or [p + half], as the hash's next bit says. *)
let prop_zipped_chain_unzips =
  QCheck.Test.make ~name:"unzip splits any zipped chain into precise chains" ~count:500
    QCheck.(
      triple (int_bound 5) (int_bound 1000)
        (list_of_size Gen.(int_bound 32) (int_bound 1000)))
    (fun (log_half, p, highs) ->
      let half = 1 lsl log_half in
      let p = p land (half - 1) in
      let hashes = List.map (fun r -> p + (half * r)) highs in
      let dest n = Rp_list.hash n land ((2 * half) - 1) in
      ignore (unzip_and_check ~dest ~dests:[ p; p + half ] hashes);
      true)

(* Through the real table: expansion must produce fully precise buckets. *)
let prop_table_expand_precise =
  QCheck.Test.make ~name:"table expansion ends with precise buckets" ~count:100
    QCheck.(pair (int_range 0 200) (int_range 2 5))
    (fun (n_keys, exp) ->
      let t =
        Rp_ht.create ~initial_size:(1 lsl exp) ~auto_resize:false
          ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
      in
      for i = 0 to n_keys - 1 do
        Rp_ht.insert t i i
      done;
      Rp_ht.resize t (1 lsl (exp + 2));
      match Rp_ht.validate t with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

let () =
  Alcotest.run "unzip"
    [
      ( "state machine",
        [
          Alcotest.test_case "empty chain" `Quick test_empty_chain;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "already precise" `Quick test_already_precise;
          Alcotest.test_case "alternating pattern" `Quick test_alternating;
          Alcotest.test_case "run pattern" `Quick test_runs;
          Alcotest.test_case "one interloper" `Quick test_one_interloper;
          Alcotest.test_case "other dest first" `Quick test_other_first;
          Alcotest.test_case "paper's example" `Quick test_paper_example;
          Alcotest.test_case "step on Done" `Quick test_step_on_done_is_done;
          Alcotest.test_case "chain_is_precise" `Quick test_chain_is_precise;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_any_pattern_unzips;
          QCheck_alcotest.to_alcotest prop_zipped_chain_unzips;
          QCheck_alcotest.to_alcotest prop_table_expand_precise;
        ] );
    ]
