(* Hash functions and power-of-two sizing. *)

let test_splitmix_deterministic () =
  Alcotest.(check int) "same input same output"
    (Rp_hashes.Hashfn.splitmix64 12345)
    (Rp_hashes.Hashfn.splitmix64 12345);
  Alcotest.(check bool) "different inputs differ" true
    (Rp_hashes.Hashfn.splitmix64 1 <> Rp_hashes.Hashfn.splitmix64 2)

let test_hashes_non_negative () =
  for i = -1000 to 1000 do
    if Rp_hashes.Hashfn.splitmix64 i < 0 then
      Alcotest.failf "splitmix64 %d is negative" i
  done;
  List.iter
    (fun s ->
      if Rp_hashes.Hashfn.fnv1a_string s < 0 then
        Alcotest.failf "fnv1a %S is negative" s;
      if Rp_hashes.Hashfn.jenkins_string s < 0 then
        Alcotest.failf "jenkins %S is negative" s)
    [ ""; "a"; "hello world"; String.make 1000 '\xff' ]

let test_fnv1a_bytes_agrees_with_string () =
  let s = "key:0000001234" in
  Alcotest.(check int) "bytes/string agree"
    (Rp_hashes.Hashfn.fnv1a_string s)
    (Rp_hashes.Hashfn.fnv1a_bytes (Bytes.of_string s))

(* Low-bit diffusion matters because bucket selection masks low bits:
   sequential integer keys must spread across buckets near-uniformly. *)
let test_low_bit_diffusion () =
  let buckets = 64 in
  let n = 64 * 100 in
  let counts = Array.make buckets 0 in
  for i = 0 to n - 1 do
    let b =
      Rp_hashes.Size.bucket_of_hash ~hash:(Rp_hashes.Hashfn.of_int i) ~size:buckets
    in
    counts.(b) <- counts.(b) + 1
  done;
  let expected = n / buckets in
  Array.iteri
    (fun b c ->
      if c < expected / 2 || c > expected * 2 then
        Alcotest.failf "bucket %d badly balanced: %d (expected ~%d)" b c expected)
    counts

let test_string_key_diffusion () =
  let buckets = 128 in
  let n = 128 * 50 in
  let counts = Array.make buckets 0 in
  for i = 0 to n - 1 do
    let h = Rp_hashes.Hashfn.fnv1a_string (Printf.sprintf "key:%010d" i) in
    let b = Rp_hashes.Size.bucket_of_hash ~hash:h ~size:buckets in
    counts.(b) <- counts.(b) + 1
  done;
  let expected = n / buckets in
  Array.iteri
    (fun b c ->
      if c < expected / 2 || c > expected * 2 then
        Alcotest.failf "bucket %d badly balanced: %d" b c)
    counts

let test_combine_order_sensitive () =
  Alcotest.(check bool) "combine not symmetric" true
    (Rp_hashes.Hashfn.combine 1 2 <> Rp_hashes.Hashfn.combine 2 1)

let test_power_of_two_predicates () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "is_power_of_two %d" n)
        expected
        (Rp_hashes.Size.is_power_of_two n))
    [ (1, true); (2, true); (1024, true); (0, false); (-4, false); (3, false); (6, false) ]

let test_next_power_of_two () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "next_power_of_two %d" n)
        expected
        (Rp_hashes.Size.next_power_of_two n))
    [ (0, 1); (1, 1); (2, 2); (3, 4); (5, 8); (1023, 1024); (1024, 1024) ];
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Size.next_power_of_two: negative") (fun () ->
      ignore (Rp_hashes.Size.next_power_of_two (-1)))

let test_log2 () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int) (Printf.sprintf "log2 %d" n) expected (Rp_hashes.Size.log2 n))
    [ (1, 0); (2, 1); (8, 3); (1 lsl 20, 20) ];
  Alcotest.check_raises "non-power rejected"
    (Invalid_argument "Size.log2: not a power of two") (fun () ->
      ignore (Rp_hashes.Size.log2 6))

let test_bucket_of_hash () =
  Alcotest.(check int) "masks low bits" 5
    (Rp_hashes.Size.bucket_of_hash ~hash:((3 lsl 10) lor 5) ~size:8)

(* Sibling-bucket property the resize algorithms rely on: an entry in bucket
   b of a table of size 2s lands in bucket (b land (s-1)) after halving. *)
let prop_sibling_buckets =
  QCheck.Test.make ~name:"halving maps buckets to parents" ~count:500
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (key, exp) ->
      let size = 1 lsl exp in
      let h = Rp_hashes.Hashfn.of_int key in
      let big = Rp_hashes.Size.bucket_of_hash ~hash:h ~size:(2 * size) in
      let small = Rp_hashes.Size.bucket_of_hash ~hash:h ~size in
      big land (size - 1) = small)

let prop_next_power_is_power =
  QCheck.Test.make ~name:"next_power_of_two returns a covering power" ~count:500
    QCheck.(int_range 0 (1 lsl 30))
    (fun n ->
      let p = Rp_hashes.Size.next_power_of_two n in
      Rp_hashes.Size.is_power_of_two p && p >= max 1 n && (p = 1 || p / 2 < max 1 n))

(* The text GET-run scanner hashes each key in the pass that finds its
   end; the table is keyed by the store's hash of the key string, so the
   two must agree on every key. Random keys of 1 to 250 bytes, drawn
   from every byte a key may hold (0x21-0x7e and 0x80-0xff), several to
   a line behind random runs of spaces, after a random number of earlier
   lines: each key sits at a random offset of the input window. *)
let key_gen =
  QCheck.Gen.(
    string_size
      ~gen:(map Char.chr (oneof [ int_range 0x21 0x7e; int_range 0x80 0xff ]))
      (oneof [ int_range 1 16; int_range 1 250 ]))

let prop_scan_hash_is_store_hash =
  QCheck.Test.make ~name:"run scanner's slice hash = Store_core.hash_key" ~count:300
    QCheck.(
      make
        ~print:(fun (skip, keys) -> Printf.sprintf "%d lines, then %s" skip (String.concat " | " (List.map String.escaped keys)))
        Gen.(pair (int_bound 5) (list_size (int_range 1 8) (pair (int_range 1 4) key_gen))
             |> map (fun (skip, ks) ->
                    (skip, List.map (fun (sp, k) -> String.make sp ' ' ^ k) ks))))
    (fun (skip, spaced) ->
      let p = Memcached.Protocol.Parser.create () in
      for i = 1 to skip do
        Memcached.Protocol.Parser.feed p (Printf.sprintf "set x%d 0 0 1\r\nv\r\n" i)
      done;
      Memcached.Protocol.Parser.feed p ("get" ^ String.concat "" spaced ^ "\r\n");
      for _ = 1 to skip do
        ignore (Memcached.Protocol.Parser.next p)
      done;
      let run = Memcached.Protocol.Parser.run p ~max_keys:0 in
      let keys = run.keys in
      let want = List.map String.trim spaced in
      if run.lines <> 1 || keys.n <> List.length want then
        QCheck.Test.fail_reportf "scanned %d lines, %d keys" run.lines keys.n;
      List.iteri
        (fun i key ->
          let slice = Bytes.sub_string keys.buf keys.offs.(i) keys.lens.(i) in
          if slice <> key then QCheck.Test.fail_reportf "key %d sliced as %S" i slice;
          if keys.hashes.(i) <> Memcached.Store_core.hash_key key then
            QCheck.Test.fail_reportf "key %d (%S at offset %d): hash %d, store %d" i key
              keys.offs.(i) keys.hashes.(i) (Memcached.Store_core.hash_key key))
        want;
      true)

let () =
  Alcotest.run "hashes"
    [
      ( "functions",
        [
          Alcotest.test_case "splitmix deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "non-negative" `Quick test_hashes_non_negative;
          Alcotest.test_case "fnv1a bytes = string" `Quick
            test_fnv1a_bytes_agrees_with_string;
          Alcotest.test_case "low-bit diffusion (int keys)" `Quick
            test_low_bit_diffusion;
          Alcotest.test_case "low-bit diffusion (string keys)" `Quick
            test_string_key_diffusion;
          Alcotest.test_case "combine order-sensitive" `Quick
            test_combine_order_sensitive;
          QCheck_alcotest.to_alcotest prop_scan_hash_is_store_hash;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "is_power_of_two" `Quick test_power_of_two_predicates;
          Alcotest.test_case "next_power_of_two" `Quick test_next_power_of_two;
          Alcotest.test_case "log2" `Quick test_log2;
          Alcotest.test_case "bucket_of_hash" `Quick test_bucket_of_hash;
          QCheck_alcotest.to_alcotest prop_sibling_buckets;
          QCheck_alcotest.to_alcotest prop_next_power_is_power;
        ] );
    ]
