(* Slab-class accounting: size ladder, class selection, charge/refund
   bookkeeping, fragmentation, oversize rejection — and the store-level
   behaviours it drives. *)

open Memcached

let test_default_ladder () =
  let slab = Slab.create () in
  let sizes = Slab.chunk_sizes slab in
  Alcotest.(check int) "base chunk" 96 sizes.(0);
  Alcotest.(check int) "max chunk" (1 lsl 20) sizes.(Array.length sizes - 1);
  Alcotest.(check bool) "several classes" true (Slab.class_count slab > 20);
  (* Strictly increasing and 8-byte aligned (except possibly the max). *)
  Array.iteri
    (fun i size ->
      if i > 0 && size <= sizes.(i - 1) then Alcotest.fail "ladder not increasing";
      if i < Array.length sizes - 1 && size land 7 <> 0 then
        Alcotest.failf "chunk %d not 8-byte aligned" size)
    sizes

let test_growth_factor_bounded () =
  let slab = Slab.create ~growth_factor:1.25 () in
  let sizes = Slab.chunk_sizes slab in
  for i = 1 to Array.length sizes - 2 do
    let ratio = float_of_int sizes.(i) /. float_of_int sizes.(i - 1) in
    if ratio > 1.35 then
      Alcotest.failf "growth %d -> %d exceeds factor headroom" sizes.(i - 1) sizes.(i)
  done

let test_class_selection () =
  let slab = Slab.create () in
  (match Slab.class_of_size slab 1 with
  | Some 0 -> ()
  | _ -> Alcotest.fail "tiny item not in class 0");
  (match Slab.class_of_size slab 96 with
  | Some 0 -> ()
  | _ -> Alcotest.fail "exact base size not in class 0");
  (match Slab.class_of_size slab 97 with
  | Some 1 -> ()
  | _ -> Alcotest.fail "97 bytes not in class 1");
  (match Slab.class_of_size slab (1 lsl 20) with
  | Some _ -> ()
  | None -> Alcotest.fail "max-size item refused");
  Alcotest.(check bool) "oversize refused" true
    (Slab.class_of_size slab ((1 lsl 20) + 1) = None)

let test_charge_refund_roundtrip () =
  let slab = Slab.create () in
  Alcotest.(check int) "empty allocated" 0 (Slab.allocated_bytes slab);
  let chunk = Option.get (Slab.charge slab 100) in
  Alcotest.(check bool) "chunk covers size" true (chunk >= 100);
  Alcotest.(check int) "allocated = chunk" chunk (Slab.allocated_bytes slab);
  Alcotest.(check int) "requested = size" 100 (Slab.requested_bytes slab);
  Alcotest.(check bool) "fragmentation positive" true (Slab.fragmentation slab > 0.0);
  Slab.refund slab 100;
  Alcotest.(check int) "allocated back to 0" 0 (Slab.allocated_bytes slab);
  Alcotest.(check int) "requested back to 0" 0 (Slab.requested_bytes slab);
  Alcotest.(check (float 1e-9)) "fragmentation 0 when empty" 0.0
    (Slab.fragmentation slab)

let test_charge_oversize () =
  let slab = Slab.create () in
  Alcotest.(check bool) "oversize charge refused" true
    (Slab.charge slab (2 lsl 20) = None);
  Alcotest.(check int) "nothing accounted" 0 (Slab.allocated_bytes slab)

let test_stats_per_class () =
  let slab = Slab.create () in
  ignore (Slab.charge slab 50);
  ignore (Slab.charge slab 60);
  ignore (Slab.charge slab 500);
  let stats = Slab.stats slab in
  Alcotest.(check int) "two classes in use" 2 (List.length stats);
  let small = List.hd stats in
  Alcotest.(check int) "small class chunks" 2 small.Slab.used_chunks;
  Alcotest.(check int) "small class bytes" 110 small.Slab.used_bytes

let test_validation () =
  Alcotest.check_raises "factor <= 1"
    (Invalid_argument "Slab.create: growth_factor <= 1") (fun () ->
      ignore (Slab.create ~growth_factor:1.0 ()));
  Alcotest.check_raises "base <= 0"
    (Invalid_argument "Slab.create: base_chunk <= 0") (fun () ->
      ignore (Slab.create ~base_chunk:0 ()))

let prop_charge_refund_balance =
  QCheck.Test.make ~name:"interleaved charges/refunds balance to zero" ~count:200
    QCheck.(list_of_size Gen.(int_bound 60) (int_range 1 100_000))
    (fun sizes ->
      let slab = Slab.create () in
      List.iter (fun size -> ignore (Slab.charge slab size)) sizes;
      let allocated = Slab.allocated_bytes slab in
      let requested = Slab.requested_bytes slab in
      let expected_requested = List.fold_left ( + ) 0 sizes in
      List.iter (fun size -> Slab.refund slab size) sizes;
      allocated >= requested
      && requested = expected_requested
      && Slab.allocated_bytes slab = 0
      && Slab.requested_bytes slab = 0)

let prop_chunk_covers =
  QCheck.Test.make ~name:"selected chunk always covers the item" ~count:500
    QCheck.(int_range 1 (1 lsl 20))
    (fun size ->
      let slab = Slab.create () in
      match Slab.class_of_size slab size with
      | None -> false
      | Some cls ->
          let chunk = Slab.chunk_size_of slab cls in
          chunk >= size && (cls = 0 || Slab.chunk_size_of slab (cls - 1) < size))

(* --- store-level behaviour driven by the slab --- *)

let test_store_rejects_oversize () =
  let store = Store.create ~backend:Store.Rp () in
  let result =
    Store.set store ~key:"big" ~flags:0 ~exptime:0 ~data:(String.make (2 lsl 20) 'x')
  in
  Alcotest.(check bool) "too large" true (result = Store.Too_large);
  Alcotest.(check int) "nothing stored" 0 (Store.items store)

let test_store_append_cannot_exceed_max () =
  let store = Store.create ~backend:Store.Lock () in
  let half = String.make (600 * 1024) 'a' in
  Alcotest.(check bool) "first half stored" true
    (Store.set store ~key:"k" ~flags:0 ~exptime:0 ~data:half = Store.Stored);
  Alcotest.(check bool) "append past 1MiB refused" true
    (Store.append store ~key:"k" ~data:half = Store.Too_large);
  (match Store.get store "k" with
  | Some v -> Alcotest.(check int) "original intact" (600 * 1024) (String.length v.vdata)
  | None -> Alcotest.fail "original lost")

let test_store_reports_fragmentation () =
  let store = Store.create ~backend:Store.Rp () in
  ignore (Store.set store ~key:"k" ~flags:0 ~exptime:0 ~data:"tiny");
  Alcotest.(check bool) "bytes >= requested" true
    (Store.bytes store > String.length "tiny");
  Alcotest.(check bool) "fragmentation reported" true
    (Store.fragmentation store > 0.0);
  Alcotest.(check int) "one class in use" 1 (List.length (Store.slab_stats store));
  let stats = Store.stats store in
  Alcotest.(check bool) "stats expose slab rows" true
    (List.mem_assoc "slab_fragmentation" stats
    && List.mem_assoc "bytes_requested" stats)

let test_server_maps_too_large () =
  let store = Store.create ~backend:Store.Rp () in
  let big : Protocol.storage =
    {
      key = "k";
      flags = 0;
      exptime = 0;
      noreply = false;
      data = String.make (2 lsl 20) 'x';
    }
  in
  (match Server.handle store (Protocol.Set big) with
  | Some (Protocol.Server_error _) -> ()
  | _ -> Alcotest.fail "text protocol should report SERVER_ERROR");
  let breq : Binary_protocol.request =
    {
      opcode = Binary_protocol.Set;
      key = "k";
      value = String.make (2 lsl 20) 'x';
      extras = Binary_protocol.set_extras ~flags:0 ~exptime:0;
      opaque = 0;
      cas = 0;
    }
  in
  match Binary_server.handle store breq with
  | [ r ] ->
      Alcotest.(check bool) "binary maps to Value_too_large" true
        (r.status = Binary_protocol.Value_too_large)
  | _ -> Alcotest.fail "binary reply shape"

(* --- value memory --- *)

(* Value [k]'s bytes: position-dependent, so a chunk overlapping another
   or read at the wrong offset shows. *)
let pattern k len = Bytes.init len (fun p -> Char.chr (((k * 31) + p) land 255))

(* Item [k]: its value is [pattern k len], its flags [k]. *)
let item slab k len = Item.create slab ~flags:k ~exptime:0 ~now:0 (pattern k len) 0 len

let check_reads_back slab (k, it, len) =
  Alcotest.(check string)
    (Printf.sprintf "value %d (%d bytes)" k len)
    (Bytes.to_string (pattern k len))
    (Item.value slab it);
  Alcotest.(check int) (Printf.sprintf "header %d" k) k (Item.flags slab it)

(* Items in chunks of several classes, until the page directory has
   grown past its first 8 entries: every item written before or after a
   growth reads back whole. *)
let test_chunks_read_back () =
  let slab = Slab.create () in
  Alcotest.(check int) "empty value" Slab.no_chunk (Slab.alloc slab 0);
  let lens = [| 1; 100; 1000; 10_000; 100_000; 600_000 |] in
  let live = ref [] and k = ref 0 in
  while Slab.pages slab <= 8 || !k mod Array.length lens <> 0 do
    let len = lens.(!k mod Array.length lens) in
    live := (!k, item slab !k len, len) :: !live;
    incr k
  done;
  Alcotest.(check bool) "more than 8 pages" true (Slab.pages slab > 8);
  List.iter (check_reads_back slab) !live

(* Freeing more chunks than one page holds grows the class's free list;
   the freed chunks are then allocated again, each once, before the
   class takes another page. *)
let test_free_list_grows () =
  let slab = Slab.create () in
  let len = 10_000 in
  let size =
    Slab.chunk_size_of slab (Option.get (Slab.class_of_size slab (Item.header_bytes + len)))
  in
  let n = (3 * ((1 lsl 20) / size)) + 5 in
  let first = Array.init n (fun _ -> Slab.alloc slab (Item.header_bytes + len)) in
  let pages = Slab.pages slab in
  Array.iter (Slab.free slab) first;
  let again = Array.init n (fun k -> item slab k len) in
  Alcotest.(check int) "no new page" pages (Slab.pages slab);
  let sorted = Array.map (fun (it : Item.t) -> (it :> int)) again in
  Array.sort compare sorted;
  Array.iteri
    (fun i c -> if i > 0 && c = sorted.(i - 1) then Alcotest.failf "chunk %d handed out twice" c)
    sorted;
  Array.iteri (fun k chunk -> check_reads_back slab (k, chunk, len)) again

(* Retired chunks go back to their class only after a grace period, in
   batches of 64: the two closed batches wait until [Rcu.barrier], and
   are then allocated again before the class carves a new page; the
   three chunks still in the domain's open batch are not. *)
let test_retire_batches () =
  let slab = Slab.create () and rcu = Rcu.create () in
  let len = 1000 in
  let size = Slab.chunk_size_of slab (Option.get (Slab.class_of_size slab len)) in
  let chunks = Array.init ((2 * 64) + 3) (fun _ -> Slab.alloc slab len) in
  Array.iter (Slab.retire slab rcu) chunks;
  Alcotest.(check int) "two batches wait" (2 * 64 * size) (Slab.limbo_bytes slab);
  Rcu.barrier rcu;
  Alcotest.(check int) "released" 0 (Slab.limbo_bytes slab);
  let pages = Slab.pages slab in
  let reused = Hashtbl.create 1024 in
  while Slab.pages slab = pages do
    Hashtbl.replace reused (Slab.alloc slab len) ()
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "retired chunk %d reused" i)
        (i < 2 * 64) (Hashtbl.mem reused c))
    chunks

(* A retiring writer that finds more than 16 MiB waiting waits out a
   grace period itself. *)
let test_limbo_cap () =
  let slab = Slab.create () and rcu = Rcu.create () in
  let mib = 1 lsl 20 in
  let chunks = Array.init 17 (fun _ -> Slab.alloc slab mib) in
  Array.iteri
    (fun i c ->
      Slab.retire slab rcu c;
      if i < 16 then Alcotest.(check int) "waiting" ((i + 1) * mib) (Slab.limbo_bytes slab))
    chunks;
  Alcotest.(check int) "past the cap: released" 0 (Slab.limbo_bytes slab)

(* --- items in their chunks --- *)

(* Every header word at its limit round-trips: 32-bit flags all ones, an
   expiry saturated at [max_int], a CAS of 2^62 - 1, and a value that
   fills the largest chunk to its last byte; one byte more does not
   fit. The value of exactly a class's chunk size less the header fills
   its chunk without touching its neighbour's. *)
let test_item_header_limits () =
  let slab = Slab.create () in
  let flags = (1 lsl 32) - 1 and cas = max_int in
  let exptime = Item.time_of_float 1e15 in
  Alcotest.(check int) "expiry saturates" max_int exptime;
  let largest = Slab.chunk_size_of slab (Slab.class_count slab - 1) in
  let data = Bytes.to_string (pattern 7 (largest - Item.header_bytes)) in
  let it = Item.of_string slab ~cas ~flags ~exptime ~now:(max_int - 1) data in
  Alcotest.(check int) "flags" flags (Item.flags slab it);
  Alcotest.(check int) "cas" cas (Item.cas slab it);
  Alcotest.(check int) "exptime" max_int (Item.exptime slab it);
  Alcotest.(check int) "access stamp" (max_int - 1) (Item.last_access slab it);
  Alcotest.(check int) "len" (String.length data) (Item.len slab it);
  Alcotest.(check bool) "hot" false (Item.is_cold slab it);
  Alcotest.(check bool) "no frame" true (Item.location slab it = None);
  Alcotest.(check string) "value" data (Item.value slab it);
  Alcotest.(check bool) "live before its expiry" false (Item.is_expired slab it ~now:(max_int - 1));
  Alcotest.(check bool) "expired at it" true (Item.is_expired slab it ~now:max_int);
  Alcotest.check_raises "one byte more"
    (Invalid_argument "Slab.alloc: larger than the largest chunk") (fun () ->
      ignore (Item.of_string slab ~flags:0 ~exptime:0 ~now:0 (data ^ "x")));
  let size = Slab.chunk_size_of slab 2 in
  let full k = Bytes.to_string (pattern k (size - Item.header_bytes)) in
  let items =
    List.init 8 (fun k -> (k, Item.of_string slab ~cas:k ~flags:k ~exptime:0 ~now:0 (full k)))
  in
  List.iter
    (fun (k, (it : Item.t)) ->
      Alcotest.(check int) "fills its chunk" size (Slab.chunk_bytes slab (it :> int));
      Alcotest.(check string) (Printf.sprintf "full value %d" k) (full k) (Item.value slab it);
      Alcotest.(check (pair int int)) "its header" (k, k) (Item.flags slab it, Item.cas slab it))
    items

(* A cold marker keeps its header and its segment frame, each word at
   its limit, and reads as an empty value. *)
let test_cold_marker_round_trip () =
  let slab = Slab.create () in
  let frame = (max_int, 1 lsl 40, (1 lsl 32) - 1) in
  let m = Item.cold slab ~cas:(max_int - 3) ~flags:((1 lsl 32) - 1) ~exptime:12345 ~now:99 frame in
  Alcotest.(check bool) "cold" true (Item.is_cold slab m);
  Alcotest.(check bool) "frame" true (Item.location slab m = Some frame);
  Alcotest.(check int) "len" 0 (Item.len slab m);
  Alcotest.(check string) "no value in RAM" "" (Item.value slab m);
  Alcotest.(check int) "cas" (max_int - 3) (Item.cas slab m);
  Alcotest.(check int) "flags" ((1 lsl 32) - 1) (Item.flags slab m);
  Alcotest.(check int) "exptime" 12345 (Item.exptime slab m);
  Alcotest.(check int) "access stamp" 99 (Item.last_access slab m);
  Alcotest.(check int) "footprint: key and overhead" (3 + Item.overhead_bytes)
    (Item.size_bytes slab ~key:"key" m)

(* [Item.serve]: a hit's flags, CAS and value land in slot [j] and at
   [fill], its stamp rises; an expired item (-2), a cold marker (-3) and
   a value too long for the buffer (-4 - len) are only reported. *)
let test_item_serve () =
  let slab = Slab.create () in
  let flags = Array.make 4 0 and cas = Array.make 4 0 and vbuf = Bytes.make 16 '.' in
  let it = Item.of_string slab ~cas:77 ~flags:5 ~exptime:100 ~now:1 "abcdef" in
  Alcotest.(check int) "served" 6 (Item.serve slab it ~now:50 ~flags ~cas 2 vbuf 3);
  Alcotest.(check (pair int int)) "header in slot 2" (5, 77) (flags.(2), cas.(2));
  Alcotest.(check string) "value at 3" "...abcdef......." (Bytes.to_string vbuf);
  Alcotest.(check int) "stamp raised" 50 (Item.last_access slab it);
  Alcotest.(check int) "too long" (-4 - 6) (Item.serve slab it ~now:60 ~flags ~cas 1 vbuf 11);
  Alcotest.(check int) "nothing stored" 0 flags.(1);
  Alcotest.(check int) "stamp kept" 50 (Item.last_access slab it);
  Alcotest.(check int) "expired" (-2) (Item.serve slab it ~now:100 ~flags ~cas 0 vbuf 0);
  let m = Item.cold slab ~cas:1 ~flags:1 ~exptime:0 ~now:0 (1, 2, 3) in
  Alcotest.(check int) "cold" (-3) (Item.serve slab m ~now:100 ~flags ~cas 0 vbuf 0);
  Alcotest.check_raises "slot outside" (Invalid_argument "Item.serve") (fun () ->
      ignore (Item.serve slab it ~now:0 ~flags ~cas 4 vbuf 0))

let () =
  Alcotest.run "slab"
    [
      ( "ladder",
        [
          Alcotest.test_case "default ladder" `Quick test_default_ladder;
          Alcotest.test_case "growth bounded" `Quick test_growth_factor_bounded;
          Alcotest.test_case "class selection" `Quick test_class_selection;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "charge/refund round trip" `Quick
            test_charge_refund_roundtrip;
          Alcotest.test_case "oversize charge" `Quick test_charge_oversize;
          Alcotest.test_case "per-class stats" `Quick test_stats_per_class;
          QCheck_alcotest.to_alcotest prop_charge_refund_balance;
          QCheck_alcotest.to_alcotest prop_chunk_covers;
        ] );
      ( "value memory",
        [
          Alcotest.test_case "chunks read back" `Quick test_chunks_read_back;
          Alcotest.test_case "free list grows" `Quick test_free_list_grows;
          Alcotest.test_case "retired in batches" `Quick test_retire_batches;
          Alcotest.test_case "limbo cap" `Quick test_limbo_cap;
        ] );
      ( "item memory",
        [
          Alcotest.test_case "header limits" `Quick test_item_header_limits;
          Alcotest.test_case "cold marker round trip" `Quick test_cold_marker_round_trip;
          Alcotest.test_case "serve" `Quick test_item_serve;
        ] );
      ( "store integration",
        [
          Alcotest.test_case "oversize rejected" `Quick test_store_rejects_oversize;
          Alcotest.test_case "append bounded" `Quick
            test_store_append_cannot_exceed_max;
          Alcotest.test_case "fragmentation reported" `Quick
            test_store_reports_fragmentation;
          Alcotest.test_case "protocol mapping" `Quick test_server_maps_too_large;
        ] );
    ]
