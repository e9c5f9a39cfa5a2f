(* Exact-LRU list and cache items. *)

open Memcached

let test_lru_order () =
  let l = Lru.create () in
  let a = Lru.push_front l "a" in
  let _b = Lru.push_front l "b" in
  let _c = Lru.push_front l "c" in
  Alcotest.(check (list string)) "MRU first" [ "c"; "b"; "a" ] (Lru.to_list l);
  Alcotest.(check int) "length" 3 (Lru.length l);
  Lru.touch l a;
  Alcotest.(check (list string)) "touch moves to front" [ "a"; "c"; "b" ]
    (Lru.to_list l);
  Alcotest.(check (option string)) "peek back" (Some "b") (Lru.peek_back l)

let test_lru_pop_back () =
  let l = Lru.create () in
  ignore (Lru.push_front l 1);
  ignore (Lru.push_front l 2);
  Alcotest.(check (option int)) "LRU evicted first" (Some 1) (Lru.pop_back l);
  Alcotest.(check (option int)) "then next" (Some 2) (Lru.pop_back l);
  Alcotest.(check (option int)) "then empty" None (Lru.pop_back l);
  Alcotest.(check int) "empty length" 0 (Lru.length l)

let test_lru_remove_idempotent () =
  let l = Lru.create () in
  let a = Lru.push_front l "a" in
  let b = Lru.push_front l "b" in
  Lru.remove l a;
  Lru.remove l a;
  Alcotest.(check (list string)) "a removed once" [ "b" ] (Lru.to_list l);
  Alcotest.(check int) "length consistent" 1 (Lru.length l);
  (* Touch after remove must not resurrect. *)
  Lru.touch l a;
  Alcotest.(check (list string)) "no resurrection" [ "b" ] (Lru.to_list l);
  Alcotest.(check string) "key accessor" "b" (Lru.key b)

let test_lru_remove_middle () =
  let l = Lru.create () in
  ignore (Lru.push_front l 1);
  let mid = Lru.push_front l 2 in
  ignore (Lru.push_front l 3);
  Lru.remove l mid;
  Alcotest.(check (list int)) "middle gone" [ 3; 1 ] (Lru.to_list l)

(* Model-based: LRU list vs a reference implemented on plain lists. *)
let prop_lru_model =
  QCheck.Test.make ~name:"lru matches list model" ~count:200
    QCheck.(list_of_size Gen.(int_bound 60) (pair (int_bound 2) (int_bound 9)))
    (fun ops ->
      let l = Lru.create () in
      let handles = Hashtbl.create 16 in
      let model = ref [] in
      List.iter
        (fun (kind, k) ->
          match kind with
          | 0 ->
              (* push_front (fresh key only, as the store guarantees) *)
              if not (Hashtbl.mem handles k) then begin
                Hashtbl.replace handles k (Lru.push_front l k);
                model := k :: !model
              end
          | 1 -> (
              match Hashtbl.find_opt handles k with
              | Some node ->
                  Lru.touch l node;
                  if List.mem k !model then
                    model := k :: List.filter (fun x -> x <> k) !model
              | None -> ())
          | _ -> (
              match Hashtbl.find_opt handles k with
              | Some node ->
                  Lru.remove l node;
                  Hashtbl.remove handles k;
                  model := List.filter (fun x -> x <> k) !model
              | None -> ()))
        ops;
      Lru.to_list l = !model && Lru.length l = List.length !model)

(* Item times are fixed-point ints; the tests speak in Unix seconds. *)
let tm = Item.time_of_float

(* Items live in slab chunks; the header tests make theirs in one. *)
let slab = Slab.create ()
let item ?cas ~exptime ~now data = Item.of_string slab ?cas ~flags:0 ~exptime ~now data

let test_item_expiry () =
  let it = item ~exptime:(tm 100.0) ~now:(tm 50.0) "x" in
  Alcotest.(check bool) "before expiry" false (Item.is_expired slab it ~now:(tm 99.9));
  Alcotest.(check bool) "at expiry" true (Item.is_expired slab it ~now:(tm 100.0));
  Alcotest.(check bool) "after expiry" true (Item.is_expired slab it ~now:(tm 200.0));
  let eternal = item ~exptime:(tm 0.0) ~now:(tm 50.0) "x" in
  Alcotest.(check bool) "exptime 0 never expires" false
    (Item.is_expired slab eternal ~now:(tm 1e12))

let test_item_cas_unique () =
  let a = item ~exptime:0 ~now:0 "x" in
  let b = item ~exptime:0 ~now:0 "x" in
  Alcotest.(check bool) "fresh items get distinct cas" true (Item.cas slab a <> Item.cas slab b);
  let pinned = item ~cas:(Item.cas slab a) ~exptime:0 ~now:0 "x" in
  Alcotest.(check int) "cas pinnable" (Item.cas slab a) (Item.cas slab pinned)

let test_item_touch_access () =
  let it = item ~exptime:0 ~now:(tm 1.0) "x" in
  let stamp () = Item.float_of_time (Item.last_access slab it) in
  Alcotest.(check (float 1e-9)) "initial access" 1.0 (stamp ());
  Item.touch_access slab it ~now:(tm 9.0);
  Alcotest.(check (float 1e-9)) "bumped" 9.0 (stamp ());
  (* A racing reader holding an older clock reading never moves the
     stamp back. *)
  Item.touch_access slab it ~now:(tm 5.0);
  Alcotest.(check (float 1e-9)) "never lowered" 9.0 (stamp ())

(* The int representation at its edges: exact both ways for clock-like
   values, positive stays positive, zero/negative/NaN is 0, saturation. *)
let test_item_time_conversion () =
  List.iter
    (fun f ->
      Alcotest.(check int64) (Printf.sprintf "%h round-trips bit-identically" f)
        (Int64.bits_of_float f)
        (Int64.bits_of_float (Item.float_of_time (tm f))))
    [ 1_000_000_060.25; 1_760_000_000.123456; 1_760_000_000.0 +. 2592000.;
      Unix.gettimeofday (); 4_294_967_296.5; 0.0 ];
  Alcotest.(check bool) "a tiny positive expiry stays an expiry" true (tm epsilon_float > 0);
  Alcotest.(check int) "negative is 0" 0 (tm (-5.0));
  Alcotest.(check int) "nan is 0" 0 (tm Float.nan);
  Alcotest.(check int) "saturates" max_int (tm 1e15);
  Alcotest.(check bool) "order preserved" true (tm 1e9 < tm (1e9 +. 1e-6))

let test_item_size_accounting () =
  let it = item ~exptime:0 ~now:0 "data" in
  Alcotest.(check int) "key + data + overhead"
    (3 + 4 + Item.overhead_bytes)
    (Item.size_bytes slab ~key:"key" it)

let () =
  Alcotest.run "lru_item"
    [
      ( "lru",
        [
          Alcotest.test_case "order and touch" `Quick test_lru_order;
          Alcotest.test_case "pop back" `Quick test_lru_pop_back;
          Alcotest.test_case "remove idempotent" `Quick test_lru_remove_idempotent;
          Alcotest.test_case "remove middle" `Quick test_lru_remove_middle;
          QCheck_alcotest.to_alcotest prop_lru_model;
        ] );
      ( "item",
        [
          Alcotest.test_case "expiry" `Quick test_item_expiry;
          Alcotest.test_case "cas uniqueness" `Quick test_item_cas_unique;
          Alcotest.test_case "touch access" `Quick test_item_touch_access;
          Alcotest.test_case "time conversion" `Quick test_item_time_conversion;
          Alcotest.test_case "size accounting" `Quick test_item_size_accounting;
        ] );
    ]
