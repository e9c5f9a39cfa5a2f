(* Relativistic linked list: node helpers, standalone list operations,
   reclamation marks, and reader/writer concurrency. *)

let make_list () =
  let rcu = Rcu.create () in
  Rp_list.create ~rcu ~equal:Int.equal ()

let test_empty () =
  let l = make_list () in
  Alcotest.(check (option string)) "find on empty" None (Rp_list.find l 1);
  Alcotest.(check int) "length" 0 (Rp_list.length l);
  Alcotest.(check bool) "mem" false (Rp_list.mem l 1)

let test_insert_find () =
  let l = make_list () in
  Rp_list.insert l 1 "a";
  Rp_list.insert l 2 "b";
  Rp_list.insert l 3 "c";
  Alcotest.(check (option string)) "find 1" (Some "a") (Rp_list.find l 1);
  Alcotest.(check (option string)) "find 3" (Some "c") (Rp_list.find l 3);
  Alcotest.(check (option string)) "find 9" None (Rp_list.find l 9);
  Alcotest.(check int) "length" 3 (Rp_list.length l);
  (* Insertion prepends: newest first. *)
  Alcotest.(check (list (pair int string)))
    "list order newest-first"
    [ (3, "c"); (2, "b"); (1, "a") ]
    (Rp_list.to_list l)

let test_duplicates_newest_wins () =
  let l = make_list () in
  Rp_list.insert l 5 "old";
  Rp_list.insert l 5 "new";
  Alcotest.(check (option string)) "newest" (Some "new") (Rp_list.find l 5);
  Alcotest.(check bool) "remove newest" true (Rp_list.remove l 5);
  Alcotest.(check (option string)) "old resurfaces" (Some "old") (Rp_list.find l 5)

let test_replace () =
  let l = make_list () in
  Alcotest.(check bool) "replace absent inserts" false (Rp_list.replace l 1 "x");
  Alcotest.(check bool) "replace present updates" true (Rp_list.replace l 1 "y");
  Alcotest.(check (option string)) "updated" (Some "y") (Rp_list.find l 1);
  Alcotest.(check int) "single binding" 1 (Rp_list.length l)

let test_remove_marks_reclaimed () =
  let l = make_list () in
  Rp_list.insert l 1 "a";
  Rp_list.insert l 2 "b";
  Alcotest.(check bool) "removed" true (Rp_list.remove l 1);
  Alcotest.(check bool) "absent remove fails" false (Rp_list.remove l 1);
  Alcotest.(check bool) "no reclaimed nodes reachable" true
    (Rp_list.validate_no_reclaimed l);
  Alcotest.(check int) "length" 1 (Rp_list.length l)

let test_remove_async () =
  let l = make_list () in
  Rp_list.insert l 1 "a";
  Alcotest.(check bool) "removed" true (Rp_list.remove_async l 1);
  Rcu.barrier (Rp_list.rcu l);
  Alcotest.(check (option string)) "gone" None (Rp_list.find l 1);
  Alcotest.(check bool) "chain clean" true (Rp_list.validate_no_reclaimed l)

let test_iter () =
  let l = make_list () in
  for i = 1 to 10 do
    Rp_list.insert l i (string_of_int i)
  done;
  let sum = ref 0 in
  Rp_list.iter l ~f:(fun k _ -> sum := !sum + k);
  Alcotest.(check int) "iter sum" 55 !sum

let test_link_helpers () =
  let n3 = Rp_list.make_node ~key:3 ~value:"c" ~next:Rp_list.Null () in
  let n2 = Rp_list.make_node ~key:2 ~value:"b" ~next:n3 () in
  let n1 = Rp_list.make_node ~hash:42 ~key:1 ~value:"a" ~next:n2 () in
  Alcotest.(check int) "length_link" 3 (Rp_list.length_link n1);
  Alcotest.(check int) "hash recorded" 42 (Rp_list.hash n1);
  let visited = ref [] in
  Rp_list.iter_links ~f:(fun n -> visited := Rp_list.key n :: !visited) n1;
  Alcotest.(check (list int)) "iter_links order" [ 3; 2; 1 ] !visited

(* Concurrent torture: a writer churns while readers verify that resident
   keys are always visible and no reclaimed node is ever reachable. *)
let test_concurrent_readers_writer () =
  let l = make_list () in
  for i = 0 to 19 do
    Rp_list.insert l i i
  done;
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              for k = 0 to 19 do
                match Rp_list.find l k with
                | Some v when v = k -> ()
                | Some _ | None -> Atomic.incr violations
              done
            done))
  in
  (* Writer churns keys 100.. while resident keys 0..19 stay put. *)
  for round = 0 to 200 do
    let k = 100 + (round mod 50) in
    Rp_list.insert l k k;
    ignore (Rp_list.remove_async l k)
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Rcu.barrier (Rp_list.rcu l);
  Alcotest.(check int) "resident keys always visible" 0 (Atomic.get violations);
  Alcotest.(check bool) "chain clean" true (Rp_list.validate_no_reclaimed l);
  Alcotest.(check int) "resident length" 20 (Rp_list.length l)

(* Model-based property test against an association list. *)
type op = Insert of int * int | Remove of int | Replace of int * int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun k v -> Insert (k, v)) (int_bound 20) (int_bound 100));
        (2, map (fun k -> Remove k) (int_bound 20));
        (2, map2 (fun k v -> Replace (k, v)) (int_bound 20) (int_bound 100));
      ])

let show_op = function
  | Insert (k, v) -> Printf.sprintf "Insert(%d,%d)" k v
  | Remove k -> Printf.sprintf "Remove %d" k
  | Replace (k, v) -> Printf.sprintf "Replace(%d,%d)" k v

let model_apply model = function
  | Insert (k, v) -> (k, v) :: model
  | Remove k ->
      let rec drop = function
        | [] -> []
        | (k', _) :: rest when k' = k -> rest
        | kv :: rest -> kv :: drop rest
      in
      drop model
  | Replace (k, v) ->
      (* replace updates only the newest (first) binding, or inserts *)
      if List.mem_assoc k model then begin
        let rec update = function
          | [] -> []
          | (k', _) :: rest when k' = k -> (k', v) :: rest
          | kv :: rest -> kv :: update rest
        in
        update model
      end
      else (k, v) :: model

let prop_matches_model =
  QCheck.Test.make ~name:"list matches model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map show_op ops))
       QCheck.Gen.(list_size (int_bound 40) op_gen))
    (fun ops ->
      let l = make_list () in
      let model = List.fold_left model_apply [] ops in
      List.iter
        (function
          | Insert (k, v) -> Rp_list.insert l k v
          | Remove k -> ignore (Rp_list.remove_async l k)
          | Replace (k, v) -> ignore (Rp_list.replace l k v))
        ops;
      Rcu.barrier (Rp_list.rcu l);
      Rp_list.validate_no_reclaimed l
      && List.for_all
           (fun k -> Rp_list.find l k = List.assoc_opt k model)
           (List.init 21 Fun.id)
      && Rp_list.length l = List.length model)

let () =
  Alcotest.run "rp_list"
    [
      ( "basic",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert and find" `Quick test_insert_find;
          Alcotest.test_case "duplicates newest wins" `Quick
            test_duplicates_newest_wins;
          Alcotest.test_case "replace" `Quick test_replace;
          Alcotest.test_case "iter" `Quick test_iter;
          Alcotest.test_case "link helpers" `Quick test_link_helpers;
        ] );
      ( "reclamation",
        [
          Alcotest.test_case "remove waits then marks" `Quick
            test_remove_marks_reclaimed;
          Alcotest.test_case "remove_async defers mark" `Quick test_remove_async;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "readers vs writer churn" `Quick
            test_concurrent_readers_writer;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_matches_model ]);
    ]
