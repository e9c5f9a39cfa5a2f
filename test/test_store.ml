(* Store semantics, exercised identically on both backends with an injected
   clock: get/set/add/replace/cas, append/prepend, counters, expiry,
   eviction (exact LRU vs CLOCK second chance), flush, stats. *)

open Memcached

let backends = [ ("lock", Store.Lock); ("rp", Store.Rp) ]

(* A controllable clock. *)
let make_store ?(max_bytes = 1 lsl 30) ?rcu_mode backend =
  let now = ref 1_000_000_000.0 in
  let store =
    Store.create ~backend ?rcu_mode ~max_bytes ~initial_size:64
      ~clock:(fun () -> !now) ()
  in
  (store, now)

let set_ok store key data =
  match Store.set store ~key ~flags:0 ~exptime:0 ~data with
  | Store.Stored -> ()
  | _ -> Alcotest.failf "set %s failed" key

let get_data store key =
  Option.map (fun (v : Protocol.value) -> v.vdata) (Store.get store key)

let test_get_set backend () =
  let store, _ = make_store backend in
  Alcotest.(check (option string)) "miss on empty" None (get_data store "k");
  set_ok store "k" "v1";
  Alcotest.(check (option string)) "hit" (Some "v1") (get_data store "k");
  set_ok store "k" "v2";
  Alcotest.(check (option string)) "overwrite" (Some "v2") (get_data store "k");
  Alcotest.(check int) "one item" 1 (Store.items store)

let test_flags_roundtrip backend () =
  let store, _ = make_store backend in
  ignore (Store.set store ~key:"k" ~flags:1234 ~exptime:0 ~data:"v");
  match Store.get store "k" with
  | Some v -> Alcotest.(check int) "flags preserved" 1234 v.vflags
  | None -> Alcotest.fail "missing"

let test_add_replace backend () =
  let store, _ = make_store backend in
  Alcotest.(check bool) "add to empty stores" true
    (Store.add store ~key:"k" ~flags:0 ~exptime:0 ~data:"a" = Store.Stored);
  Alcotest.(check bool) "add to existing refuses" true
    (Store.add store ~key:"k" ~flags:0 ~exptime:0 ~data:"b" = Store.Not_stored);
  Alcotest.(check (option string)) "value untouched" (Some "a") (get_data store "k");
  Alcotest.(check bool) "replace existing stores" true
    (Store.replace store ~key:"k" ~flags:0 ~exptime:0 ~data:"c" = Store.Stored);
  Alcotest.(check bool) "replace absent refuses" true
    (Store.replace store ~key:"nope" ~flags:0 ~exptime:0 ~data:"d"
    = Store.Not_stored)

let test_cas backend () =
  let store, _ = make_store backend in
  set_ok store "k" "v";
  let unique =
    match Store.get_many store ~with_cas:true [ "k" ] with
    | [ { vcas = Some c; _ } ] -> c
    | _ -> Alcotest.fail "gets lost cas"
  in
  Alcotest.(check bool) "cas with stale unique" true
    (Store.cas store ~key:"k" ~flags:0 ~exptime:0 ~data:"x" ~unique:(unique + 1)
    = Store.Exists);
  Alcotest.(check bool) "cas with right unique" true
    (Store.cas store ~key:"k" ~flags:0 ~exptime:0 ~data:"y" ~unique = Store.Stored);
  Alcotest.(check (option string)) "cas applied" (Some "y") (get_data store "k");
  Alcotest.(check bool) "cas absent key" true
    (Store.cas store ~key:"ghost" ~flags:0 ~exptime:0 ~data:"z" ~unique
    = Store.Not_found)

let test_append_prepend backend () =
  let store, _ = make_store backend in
  Alcotest.(check bool) "append absent refuses" true
    (Store.append store ~key:"k" ~data:"x" = Store.Not_stored);
  set_ok store "k" "mid";
  Alcotest.(check bool) "append" true (Store.append store ~key:"k" ~data:"post" = Store.Stored);
  Alcotest.(check bool) "prepend" true (Store.prepend store ~key:"k" ~data:"pre" = Store.Stored);
  Alcotest.(check (option string)) "concatenated" (Some "premidpost")
    (get_data store "k")

let test_delete backend () =
  let store, _ = make_store backend in
  set_ok store "k" "v";
  Alcotest.(check bool) "delete present" true (Store.delete store "k");
  Alcotest.(check bool) "delete absent" false (Store.delete store "k");
  Alcotest.(check (option string)) "gone" None (get_data store "k");
  Alcotest.(check int) "empty" 0 (Store.items store)

let test_counters backend () =
  let store, _ = make_store backend in
  set_ok store "c" "10";
  Alcotest.(check bool) "incr" true (Store.incr store "c" 5 = Store.Cvalue 15);
  Alcotest.(check bool) "decr" true (Store.decr store "c" 3 = Store.Cvalue 12);
  Alcotest.(check bool) "decr saturates at 0" true
    (Store.decr store "c" 100 = Store.Cvalue 0);
  Alcotest.(check (option string)) "stored as string" (Some "0") (get_data store "c");
  Alcotest.(check bool) "incr absent" true (Store.incr store "ghost" 1 = Store.Cnotfound);
  set_ok store "s" "not-a-number";
  Alcotest.(check bool) "incr non-numeric" true
    (Store.incr store "s" 1 = Store.Cnon_numeric)

let test_expiry backend () =
  let store, now = make_store backend in
  (* Relative expiry: 60 seconds. *)
  ignore (Store.set store ~key:"k" ~flags:0 ~exptime:60 ~data:"v");
  Alcotest.(check (option string)) "alive" (Some "v") (get_data store "k");
  now := !now +. 59.0;
  Alcotest.(check (option string)) "still alive at 59s" (Some "v") (get_data store "k");
  now := !now +. 2.0;
  Alcotest.(check (option string)) "expired at 61s" None (get_data store "k");
  (* The expired item must eventually leave the store (lazy deletion). *)
  Alcotest.(check int) "reaped" 0 (Store.items store)

let test_expiry_absolute backend () =
  let store, now = make_store backend in
  (* Values beyond 30 days are absolute Unix timestamps. *)
  let absolute = int_of_float !now + 100 in
  ignore (Store.set store ~key:"k" ~flags:0 ~exptime:absolute ~data:"v");
  Alcotest.(check (option string)) "alive" (Some "v") (get_data store "k");
  now := float_of_int (absolute + 1);
  Alcotest.(check (option string)) "expired at absolute time" None
    (get_data store "k")

let test_expired_key_is_storable backend () =
  let store, now = make_store backend in
  ignore (Store.set store ~key:"k" ~flags:0 ~exptime:10 ~data:"old");
  now := !now +. 11.0;
  (* add treats the expired binding as absent. *)
  Alcotest.(check bool) "add over expired" true
    (Store.add store ~key:"k" ~flags:0 ~exptime:0 ~data:"new" = Store.Stored);
  Alcotest.(check (option string)) "new value" (Some "new") (get_data store "k")

let test_touch backend () =
  let store, now = make_store backend in
  ignore (Store.set store ~key:"k" ~flags:7 ~exptime:10 ~data:"v");
  Alcotest.(check bool) "touch extends" true (Store.touch store ~key:"k" ~exptime:100);
  now := !now +. 50.0;
  Alcotest.(check (option string)) "alive past old expiry" (Some "v")
    (get_data store "k");
  Alcotest.(check bool) "touch absent" false
    (Store.touch store ~key:"ghost" ~exptime:100)

let test_flush_all backend () =
  let store, _ = make_store backend in
  for i = 0 to 9 do
    set_ok store (Printf.sprintf "k%d" i) "v"
  done;
  Store.flush_all store;
  Alcotest.(check int) "emptied" 0 (Store.items store);
  Alcotest.(check int) "bytes zeroed" 0 (Store.bytes store);
  Alcotest.(check (option string)) "all gone" None (get_data store "k3")

(* Eviction budgets are in slab-chunk bytes, like stock memcached: compute
   the chunk an item of this size lands in. *)
let chunk_for item_size =
  let slab = Slab.create () in
  match Slab.class_of_size slab item_size with
  | Some cls -> Slab.chunk_size_of slab cls
  | None -> Alcotest.fail "item larger than any slab class"

let test_eviction_on_budget backend () =
  (* Budget fits ~8 items of this size; inserting 50 must evict, never
     grow past budget, and keep the most recent key resident. *)
  let item_size = chunk_for (3 + 100 + Item.overhead_bytes) in
  let store, _ = make_store ~max_bytes:(8 * item_size) backend in
  for i = 0 to 49 do
    ignore
      (Store.set store
         ~key:(Printf.sprintf "k%02d" i)
         ~flags:0 ~exptime:0 ~data:(String.make 100 'x'))
  done;
  Alcotest.(check bool) "evictions happened" true (Store.evictions store > 0);
  Alcotest.(check bool) "within budget" true (Store.bytes store <= 8 * item_size);
  Alcotest.(check (option string)) "newest survives"
    (Some (String.make 100 'x'))
    (get_data store "k49")

let test_lock_eviction_is_lru () =
  (* Exact LRU: with budget for 4 items, GETting an old key protects it. *)
  let item_size = chunk_for (2 + 10 + Item.overhead_bytes) in
  let store, _ = make_store ~max_bytes:(4 * item_size) Store.Lock in
  List.iter (fun k -> set_ok store k (String.make 10 'v')) [ "k0"; "k1"; "k2"; "k3" ];
  (* Bump k0 so k1 becomes the LRU victim. *)
  ignore (Store.get store "k0");
  set_ok store "k4" (String.make 10 'v');
  Alcotest.(check (option string)) "bumped key survives"
    (Some (String.make 10 'v'))
    (get_data store "k0");
  Alcotest.(check (option string)) "LRU victim evicted" None (get_data store "k1")

let test_rp_eviction_second_chance () =
  (* CLOCK approximation: a key touched since enqueue gets a second chance. *)
  let item_size = chunk_for (2 + 10 + Item.overhead_bytes) in
  let store, now = make_store ~max_bytes:(4 * item_size) Store.Rp in
  List.iter (fun k -> set_ok store k (String.make 10 'v')) [ "k0"; "k1"; "k2"; "k3" ];
  now := !now +. 1.0;
  ignore (Store.get store "k0");
  set_ok store "k4" (String.make 10 'v');
  Alcotest.(check (option string)) "recently used key survives"
    (Some (String.make 10 'v'))
    (get_data store "k0");
  Alcotest.(check bool) "something was evicted" true (Store.evictions store > 0)

let stat store key =
  match List.assoc_opt key (Store.stats store) with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "missing stat %s" key

let test_clock_budget_all_hot () =
  (* Regression: when every resident key is hot, each sweep's second
     chances are bounded by the queue length at sweep start, so eviction
     degrades to FIFO instead of requeueing forever. *)
  let item_size = chunk_for (2 + 10 + Item.overhead_bytes) in
  let store, now = make_store ~max_bytes:(4 * item_size) Store.Rp in
  List.iter (fun k -> set_ok store k (String.make 10 'v')) [ "k0"; "k1"; "k2"; "k3" ];
  now := !now +. 1.0;
  List.iter (fun k -> ignore (Store.get store k)) [ "k0"; "k1"; "k2"; "k3" ];
  set_ok store "k4" (String.make 10 'v');
  Alcotest.(check bool) "eviction made room" true (Store.evictions store > 0);
  Alcotest.(check bool) "within budget" true (Store.bytes store <= 4 * item_size);
  Alcotest.(check bool) "second chances were granted" true
    (stat store "clock_second_chances" > 0);
  Alcotest.(check bool) "budget bounds the chances" true
    (stat store "clock_second_chances" <= 5);
  (* The hot residents kept their seats; the one cold key (k4, never
     touched since insert) was the FIFO victim once the chances ran out. *)
  List.iter
    (fun k ->
      Alcotest.(check (option string)) (k ^ " kept by its second chance")
        (Some (String.make 10 'v'))
        (get_data store k))
    [ "k0"; "k1"; "k2"; "k3" ];
  (* The sweep-latency histogram saw the all-hot sweep — the worst case
     it exists to expose (every resident requeued before the evict). *)
  Alcotest.(check bool) "eviction_sweep_us populated" true
    (stat store "eviction_sweep_us_count" > 0);
  Alcotest.(check bool) "sweep latency non-negative" true
    (stat store "eviction_sweep_us_sum" >= 0)

(* Qsbr-mode coverage: the expiry and eviction slow paths run locked
   update-side code (synchronize included) from the mutating caller, which
   under QSBR is itself a registered reader — the single-threaded tests
   would hang on any missed quiescent state. *)

let test_qsbr_expiry () =
  let store, now = make_store ~rcu_mode:Store.Qsbr Store.Rp in
  Alcotest.(check bool) "qsbr mode" true (Store.rcu_mode store = Store.Qsbr);
  ignore (Store.set store ~key:"k" ~flags:0 ~exptime:60 ~data:"v");
  now := !now +. 61.0;
  Alcotest.(check (option string)) "expired" None (get_data store "k");
  Alcotest.(check int) "reaped" 0 (Store.items store);
  Alcotest.(check bool) "expired counter moved" true (stat store "expired" > 0);
  Store.reader_offline store

let test_qsbr_eviction () =
  let item_size = chunk_for (3 + 100 + Item.overhead_bytes) in
  let store, _ = make_store ~rcu_mode:Store.Qsbr ~max_bytes:(8 * item_size) Store.Rp in
  for i = 0 to 49 do
    ignore
      (Store.set store
         ~key:(Printf.sprintf "k%02d" i)
         ~flags:0 ~exptime:0 ~data:(String.make 100 'x'))
  done;
  Alcotest.(check bool) "evictions happened" true (Store.evictions store > 0);
  Alcotest.(check bool) "eviction counter in stats" true (stat store "evictions" > 0);
  Alcotest.(check bool) "within budget" true (Store.bytes store <= 8 * item_size);
  Alcotest.(check (option string)) "newest survives"
    (Some (String.make 100 'x'))
    (get_data store "k49");
  Store.reader_offline store

(* The memcached 30-day rule, pinned at the boundary: REALTIME_MAXDELTA
   seconds is still a relative offset, one more is an absolute Unix
   timestamp (which, in 1970 terms, is long past). *)
let realtime_maxdelta = 30 * 24 * 60 * 60

let test_exptime_threshold backend () =
  let store, now = make_store backend in
  ignore
    (Store.set store ~key:"rel" ~flags:0 ~exptime:realtime_maxdelta ~data:"v");
  ignore
    (Store.set store ~key:"abs" ~flags:0 ~exptime:(realtime_maxdelta + 1) ~data:"v");
  Alcotest.(check (option string)) "30d is relative: alive" (Some "v")
    (get_data store "rel");
  Alcotest.(check (option string)) "30d+1s is absolute: long expired" None
    (get_data store "abs");
  now := !now +. float_of_int realtime_maxdelta +. 1.0;
  Alcotest.(check (option string)) "relative deadline enforced" None
    (get_data store "rel")

let test_exptime_logged_absolute backend () =
  (* Replay determinism: the persist hook must see expiry as the absolute
     Unix seconds computed once at op time, never a relative offset. *)
  let store, now = make_store backend in
  let last = ref None in
  Store.set_persist_hook store (Some (fun r -> last := Some r));
  let logged_exptime exptime =
    ignore (Store.set store ~key:"k" ~flags:0 ~exptime ~data:"v");
    match !last with
    | Some (Rp_persist.Record.Set { exptime = e; _ }) -> e
    | _ -> Alcotest.fail "set not logged"
  in
  Alcotest.(check (float 0.)) "0 stays 0 (never expires)" 0. (logged_exptime 0);
  Alcotest.(check (float 0.)) "relative becomes now + offset" (!now +. 60.)
    (logged_exptime 60);
  Alcotest.(check (float 0.)) "boundary is still relative"
    (!now +. float_of_int realtime_maxdelta)
    (logged_exptime realtime_maxdelta);
  Alcotest.(check (float 0.)) "past the boundary is absolute"
    (float_of_int (realtime_maxdelta + 1))
    (logged_exptime (realtime_maxdelta + 1));
  Alcotest.(check bool) "negative is expired, not 'never'" true
    (let e = logged_exptime (-1) in
     e > 0. && e < 1.);
  Store.set_persist_hook store None

let test_stats backend () =
  let store, _ = make_store backend in
  set_ok store "k" "v";
  ignore (Store.get store "k");
  ignore (Store.get store "ghost");
  let stats = Store.stats store in
  let get key = List.assoc key stats in
  Alcotest.(check string) "hits" "1" (get "get_hits");
  Alcotest.(check string) "misses" "1" (get "get_misses");
  Alcotest.(check string) "curr_items" "1" (get "curr_items");
  Alcotest.(check string) "backend name"
    (match backend with Store.Lock -> "lock" | Store.Rp -> "rp")
    (get "backend");
  Alcotest.(check bool) "bytes positive" true (int_of_string (get "bytes") > 0)

let test_get_many backend () =
  let store, _ = make_store backend in
  set_ok store "a" "1";
  set_ok store "b" "2";
  let values = Store.get_many store [ "a"; "ghost"; "b" ] in
  Alcotest.(check (list (pair string string)))
    "present keys in order"
    [ ("a", "1"); ("b", "2") ]
    (List.map (fun (v : Protocol.value) -> (v.vkey, v.vdata)) values)

(* Expiry edges of the int time representation: a negative exptime is
   already expired, an item expiring exactly now is expired, and an
   exptime past 30 days is an absolute instant, expired exactly at it. *)
let test_expiry_edges backend () =
  let store, now = make_store backend in
  now := 1_000_000_000.5;
  ignore (Store.set store ~key:"neg" ~flags:0 ~exptime:(-1) ~data:"v");
  Alcotest.(check (option string)) "negative exptime: expired on arrival" None
    (get_data store "neg");
  let start = !now in
  ignore (Store.set store ~key:"rel" ~flags:0 ~exptime:10 ~data:"v");
  now := start +. 9.75;
  Alcotest.(check (option string)) "alive just before" (Some "v") (get_data store "rel");
  now := start +. 10.0;
  Alcotest.(check (option string)) "exptime = now is expired" None (get_data store "rel");
  let absolute = realtime_maxdelta + 1 in
  ignore (Store.set store ~key:"old_abs" ~flags:0 ~exptime:absolute ~data:"v");
  Alcotest.(check (option string)) "over 30 days is absolute (long past)" None
    (get_data store "old_abs");
  let instant = int_of_float !now + 50 in
  ignore (Store.set store ~key:"abs" ~flags:0 ~exptime:instant ~data:"v");
  now := float_of_int instant -. 0.25;
  Alcotest.(check (option string)) "absolute: alive before the instant" (Some "v")
    (get_data store "abs");
  now := float_of_int instant;
  Alcotest.(check (option string)) "absolute: expired at the instant" None
    (get_data store "abs")

(* Minor words [f] allocates, net of the measurement itself; the least of
   a few runs, so a one-off (a GC slice, a lazily grown buffer) does not
   count. *)
let minor_words f =
  let once g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  let least g = List.fold_left min infinity (List.init 5 (fun _ -> g ())) in
  int_of_float (least (fun () -> once f) -. least (fun () -> once ignore))

(* Words of a fresh [len]-byte string: its header and the bytes, padded
   to a whole word with at least one byte to spare. *)
let string_words len = 1 + ((len + 8) / 8)

(* Allocation gate for the GET hit path (no timing involved): one
   get_many hit on an Rp/QSBR store with the default wall clock costs
   the clock reading's box (2 words), the one-key walk array (2), the
   reply record (5), its list cell (3) and the reply's copy of the
   value, which lives in a slab chunk off the heap (a 100-byte string:
   14). *)
let test_get_hit_allocation () =
  let store = Store.create ~backend:Store.Rp ~rcu_mode:Store.Qsbr ~initial_size:64 () in
  set_ok store "key" (String.make 100 'x');
  let keys = [ "key" ] in
  let hit () =
    match Store.get_many store keys with
    | [ _ ] -> ()
    | _ -> Alcotest.fail "get_many missed"
  in
  hit ();
  let words = minor_words hit in
  Printf.printf "get_many hit: %d minor words\n" words;
  let bound = 12 + string_words 100 in
  Alcotest.(check bool) (Printf.sprintf "%d words <= %d" words bound) true (words <= bound);
  Store.reader_offline store

(* Allocation gate for a 32-key multiget of hits on Rp/QSBR: the staged
   read section allocates nothing, so each hit costs its reply record
   (5), its list cell (3), its value's copy and a word in the walk
   array, plus the batch's one clock box and the array's header. *)
let test_get_many_batch_allocation () =
  let store = Store.create ~backend:Store.Rp ~rcu_mode:Store.Qsbr ~initial_size:64 () in
  let keys = List.init 32 (Printf.sprintf "key%02d") in
  List.iter (fun key -> set_ok store key (String.make 100 'x')) keys;
  let hit () =
    if List.length (Store.get_many store keys) <> 32 then Alcotest.fail "get_many missed"
  in
  hit ();
  let words = minor_words hit in
  Printf.printf "32-key get_many: %d minor words\n" words;
  let bound = (32 * (9 + string_words 100)) + 3 in
  Alcotest.(check bool) (Printf.sprintf "%d words <= %d" words bound) true (words <= bound);
  Store.reader_offline store

(* Allocation gate for a same-size SET overwrite on Rp/QSBR (no timing
   involved): the clock reading's box (2 words), the table exchange's
   [Some] (2) and the closure around the store's stripe section (12); it
   reads 16. The item — header and value — goes into a slab chunk off
   the heap: the caller's string is not kept, and no item record is
   made. *)
let test_set_overwrite_allocation () =
  let store = Store.create ~backend:Store.Rp ~rcu_mode:Store.Qsbr ~initial_size:64 () in
  let data = String.make 100 'x' in
  let overwrite () = set_ok store "key" data in
  overwrite ();
  let words = minor_words overwrite in
  Printf.printf "same-size set overwrite: %d minor words\n" words;
  Alcotest.(check bool) (Printf.sprintf "%d words <= 27" words) true (words <= 27);
  Alcotest.(check int) "one item" 1 (Store.items store);
  Alcotest.(check int) "one chunk charged" (chunk_for (3 + 100 + Item.overhead_bytes))
    (Store.bytes store);
  Store.reader_offline store

(* Promotion gate (exact, no timing): 10,000 overwrite SETs of 1,000
   resident keys, with a minor collection every 100, promote less than
   one word per SET. An overwrite writes its item into a fresh chunk and
   publishes the chunk's id in place of the old one, so nothing it
   allocates outlives it; the Lock backend swaps the id in the key's
   entry and moves its LRU node. Every minor collection promotes what is
   live, so a heap block kept per binding would be promoted on every
   SET. What does survive: the RCU callback queue's cell for each limbo
   batch of 64 retired chunks. A warm-up of 5,000 overwrites fills the slab's pool
   of limbo batches first. *)
let test_overwrite_promotion ?rcu_mode backend () =
  let store = Store.create ~backend ?rcu_mode ~initial_size:2048 () in
  let keys = Array.init 1000 (Printf.sprintf "resident:%04d") in
  let data = Array.init 4 (fun v -> String.make 100 (Char.chr (Char.code 'a' + v))) in
  let overwrite i = set_ok store keys.(i mod 1000) data.(i mod 4) in
  for i = 0 to 4999 do
    overwrite i
  done;
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).promoted_words in
  for i = 1 to 10_000 do
    overwrite i;
    if i mod 100 = 0 then Gc.minor ()
  done;
  let per_set = ((Gc.quick_stat ()).promoted_words -. p0) /. 10_000. in
  Printf.printf "overwrite SETs: %.3f promoted words per SET\n" per_set;
  Alcotest.(check bool) (Printf.sprintf "%.3f promoted words per SET < 1" per_set) true
    (per_set < 1.);
  Alcotest.(check int) "items" 1000 (Store.items store);
  Alcotest.(check (option string)) "last value" (Some data.(10_000 mod 4))
    (get_data store keys.(10_000 mod 1000));
  Store.reader_offline store

(* [Store.set_slice] (a set line read in place) against [Store.set] on a
   twin store, with an op log attached to both: the same replies, the
   same records but for their CAS uniques, in the same order (new keys,
   overwrites of the same and of another size, an oversize value), the same items, bytes and
   [cmd_set]. The slices share one buffer: each key, then its data. *)
let test_set_slice_logs_as_set backend () =
  let logged () =
    let store, _ = make_store backend in
    let records = ref [] in
    Store.set_persist_hook store (Some (fun r -> records := r :: !records));
    (store, records)
  in
  let by_set, set_records = logged () and by_slice, slice_records = logged () in
  let too_large = String.make (2 * 1024 * 1024) 'z' in
  let ops =
    [ ("a", "one"); ("b", "two"); ("a", "uno"); ("b", "a longer value"); ("c", too_large);
      ("a", "") ]
  in
  let keys = Protocol.Keys.create () in
  List.iteri
    (fun exptime (key, data) ->
      let want = Store.set by_set ~key ~flags:exptime ~exptime ~data in
      Protocol.Keys.stage keys [ key; data ];
      let got =
        Store.set_slice by_slice ~clock:(Store.clock by_slice) keys 0 ~flags:exptime ~exptime
          ~off:keys.offs.(1) ~len:keys.lens.(1)
      in
      Alcotest.(check bool) (Printf.sprintf "set %s: same reply" key) true (want = got))
    ops;
  Alcotest.(check int) "five records" 5 (List.length !set_records);
  (* CAS uniques come from one counter shared by every store *)
  let fields =
    List.map (function
      | Rp_persist.Record.Set { op; key; flags; exptime; data; cas = _ } ->
          (op, key, flags, exptime, data)
      | _ -> Alcotest.fail "not a set record")
  in
  Alcotest.(check bool) "the same records" true (fields !set_records = fields !slice_records);
  List.iter
    (fun key ->
      Alcotest.(check (option string)) key (get_data by_set key) (get_data by_slice key))
    [ "a"; "b"; "c" ];
  Alcotest.(check int) "items" (Store.items by_set) (Store.items by_slice);
  Alcotest.(check int) "bytes" (Store.bytes by_set) (Store.bytes by_slice);
  Alcotest.(check int) "cmd_set" (stat by_set "cmd_set") (stat by_slice "cmd_set");
  Alcotest.check_raises "key index out of range" (Invalid_argument "Store.set_slice")
    (fun () -> ignore (Store.set_slice by_slice ~clock:0. keys 2 ~flags:0 ~exptime:0 ~off:0 ~len:0));
  Alcotest.check_raises "data slice out of range" (Invalid_argument "Store.set_slice")
    (fun () ->
      ignore
        (Store.set_slice by_slice ~clock:0. keys 0 ~flags:0 ~exptime:0 ~off:1
           ~len:(Bytes.length keys.buf)))

(* A stats line of a named section, as a number (0 when absent). *)
let section_stat store section name =
  match Store.stats_section store section with
  | Some lines -> (
      match List.assoc_opt name lines with
      | Some v -> int_of_float (float_of_string v)
      | None -> 0)
  | None -> Alcotest.failf "no stats section %S" section

(* Spin until [ready ()] or [seconds] pass; whether it became ready. *)
let await ?(seconds = 30.) ready =
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (ready ())) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  ready ()

(* Park the first SET of [key] inside the op-log hook, which runs under
   the key's stripe; [parked] is set once it is there, and it leaves
   once [release] is. *)
let park_set_of store key =
  let parked = Atomic.make false and release = Atomic.make false in
  Store.set_persist_hook store
    (Some
       (function
       | Rp_persist.Record.Set { key = k; _ } when k = key && not (Atomic.get release) ->
           Atomic.set parked true;
           while not (Atomic.get release) do
             Domain.cpu_relax ()
           done
       | _ -> ()));
  (parked, release)

(* Writer scaling and the read path (DESIGN §15.3), without a clock: a
   writer holding its key's stripe — parked inside the op-log hook,
   which runs under that stripe — blocks neither GETs (of its own key or
   of any key on its stripe) nor SETs and DELETEs of keys on every other
   stripe. They run in a second domain, which must finish while the
   stripe is still held; the deadline only bounds a hang. The table
   does not auto-resize here: a resize takes every stripe, so it waits
   for the held one (see "auto-resize behind a held stripe").

   Then a third domain SETs a key on the held stripe. The stripe it
   waits for is the table's own, so the wait is counted: the contended
   total and the held stripe's heat cell must rise while the stripe is
   still held, and once it is released the SET lands. *)
let test_held_stripe_blocks_nothing_else () =
  let store =
    Store.create ~backend:Store.Rp ~initial_size:256 ~stripes:8 ~auto_resize:false ~heat_topk:4
      ~heat_sample:1 ()
  in
  let stripes = Store.write_stripes store in
  let stripe k = Store_core.hash_key k land (stripes - 1) in
  let held = "held" in
  let key j i = Printf.sprintf "k%d-%d" j i in
  (* twenty keys per stripe *)
  let keys =
    List.init stripes (fun j ->
        List.filter (fun k -> stripe k = j) (List.init 2000 (key j))
        |> List.filteri (fun i _ -> i < 20))
    |> List.concat
  in
  List.iter (fun k -> set_ok store k "old") (held :: keys);
  let parked, release = park_set_of store held in
  let holder = Domain.spawn (fun () -> set_ok store held "new") in
  if not (await (fun () -> Atomic.get parked)) then Alcotest.fail "the SET never parked";
  let same, other = List.partition (fun k -> stripe k = stripe held) keys in
  let done_ = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        let held_value = get_data store held in
        let same_values = List.map (get_data store) same in
        List.iter (fun k -> set_ok store k "fresh") other;
        List.iter (fun k -> ignore (Store.delete store k)) other;
        Atomic.set done_ true;
        (held_value, same_values))
  in
  let finished = await (fun () -> Atomic.get done_) in
  let contended () = section_stat store "rp" "rp_ht_stripe_contended_total" in
  let cell () =
    section_stat store "heat" (Printf.sprintf "heat_stripe_contended{stripe=\"%d\"}" (stripe held))
  in
  let contended_before = contended () and cell_before = cell () in
  let blocked = List.hd same in
  let contender = Domain.spawn (fun () -> set_ok store blocked "contended") in
  let counted = await (fun () -> contended () > contended_before && cell () > cell_before) in
  Atomic.set release true;
  Domain.join holder;
  Domain.join contender;
  let held_value, same_values = Domain.join worker in
  Store.set_persist_hook store None;
  Alcotest.(check bool) "reads and other stripes' writes finished under the held stripe" true
    finished;
  Alcotest.(check bool) "keys on the held stripe and on others" true (same <> [] && other <> []);
  (* the hook runs after the exchange published the new item *)
  Alcotest.(check (option string)) "the held key reads its published value" (Some "new")
    held_value;
  Alcotest.(check bool) "its stripe's keys read" true
    (List.for_all (fun v -> v = Some "old") same_values);
  Alcotest.(check bool) "the wait on the held stripe is counted, in total and in its cell" true
    counted;
  Alcotest.(check (option string)) "the parked SET completes" (Some "new") (get_data store held);
  Alcotest.(check (option string)) "the contended SET lands" (Some "contended")
    (get_data store blocked);
  Alcotest.(check int) "the other stripes' keys deleted" (1 + List.length same) (Store.items store)

let rcu_modes = [ ("memb", Store.Memb); ("qsbr", Store.Qsbr) ]

(* flush_all takes every stripe and unlinks every key under them, which
   needs precise chains: here an auto-resize expansion has just left
   buckets waiting for their lazy split. The store must come out empty
   and the table valid. *)
let test_flush_with_pending_splits rcu_mode () =
  let store = Store.create ~backend:Store.Rp ~rcu_mode ~initial_size:16 ~stripes:8 () in
  let pending () = section_stat store "rp" "rp_ht_pending_splits" in
  let rec fill i =
    set_ok store (Printf.sprintf "key%d" i) "v";
    if pending () = 0 then
      if i < 10_000 then fill (i + 1) else Alcotest.fail "no expansion left a split pending"
    else i + 1
  in
  let n = fill 0 in
  Alcotest.(check bool) "splits pending before the flush" true (pending () > 0);
  Store.flush_all store;
  Alcotest.(check int) "empty" 0 (Store.items store);
  Alcotest.(check bool) "every key gone" true
    (List.for_all (fun i -> get_data store (Printf.sprintf "key%d" i) = None) (List.init n Fun.id));
  Alcotest.(check int) "no split pending" 0 (pending ());
  (match Store.validate store with Ok () -> () | Error msg -> Alcotest.failf "invariant: %s" msg);
  set_ok store "after" "flush";
  Alcotest.(check (option string)) "writes go on" (Some "flush") (get_data store "after");
  Store.reader_offline store

(* A SET whose insert trips the grow threshold runs the expansion after
   releasing its own stripe; the expansion takes every stripe, so it
   waits for a stripe parked in the op-log hook. The SET's value is
   published before that wait, the table cannot grow while the stripe is
   held, and once the hook is released both SETs complete: no
   self-deadlock, no lost key. *)
let test_resize_behind_held_stripe rcu_mode () =
  let store = Store.create ~backend:Store.Rp ~rcu_mode ~initial_size:64 ~stripes:8 () in
  let stripes = Store.write_stripes store in
  let stripe k = Store_core.hash_key k land (stripes - 1) in
  let rp name = section_stat store "rp" name in
  let held = "held" in
  set_ok store held "old";
  (* fill until one more binding trips the grow threshold (3/4 load) *)
  let rec fill i acc =
    if (rp "rp_ht_items" + 1) * 4 > rp "rp_ht_buckets" * 3 then acc
    else begin
      let k = Printf.sprintf "fill%d" i in
      set_ok store k k;
      fill (i + 1) (k :: acc)
    end
  in
  let filled = fill 0 [] in
  let trip =
    List.find (fun k -> stripe k <> stripe held) (List.init 1000 (Printf.sprintf "trip%d"))
  in
  let buckets = rp "rp_ht_buckets" and expands = rp "rp_ht_expands_total" in
  let parked, release = park_set_of store held in
  let holder =
    Domain.spawn (fun () ->
        set_ok store held "new";
        Store.reader_offline store)
  in
  if not (await (fun () -> Atomic.get parked)) then Alcotest.fail "the SET never parked";
  let tripper =
    Domain.spawn (fun () ->
        set_ok store trip "tripped";
        Store.reader_offline store)
  in
  let published = await (fun () -> get_data store trip = Some "tripped") in
  let grew_while_held = rp "rp_ht_buckets" <> buckets in
  Store.reader_offline store;
  Atomic.set release true;
  Domain.join holder;
  Domain.join tripper;
  Store.set_persist_hook store None;
  Alcotest.(check bool) "the tripping SET published before the resize" true published;
  Alcotest.(check bool) "no resize while a stripe is held" false grew_while_held;
  Alcotest.(check bool) "the table grew after the release" true
    (rp "rp_ht_expands_total" > expands && rp "rp_ht_buckets" > buckets);
  Alcotest.(check (option string)) "the parked SET completes" (Some "new") (get_data store held);
  Alcotest.(check (option string)) "the tripping SET's key" (Some "tripped") (get_data store trip);
  Alcotest.(check bool) "no key lost" true
    (List.for_all (fun k -> get_data store k = Some k) filled);
  Alcotest.(check int) "items" (List.length filled + 2) (Store.items store);
  (match Store.validate store with Ok () -> () | Error msg -> Alcotest.failf "invariant: %s" msg);
  Store.reader_offline store

(* An in-memory cold tier: demotions land in a table keyed by offset. *)
let memory_tier store =
  let frames = Hashtbl.create 16 in
  let next = ref 0 in
  let admit = ref true in
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
         th_admit = (fun () -> !admit);
       });
  admit

(* Slab exactness: whatever mix of writes ran, the store's charged bytes
   are the chunk sizes of exactly the items it holds — a hot item's
   chunk for its key and data, a cold marker's for its key alone. *)
let test_slab_exact () =
  let value_chunk = chunk_for (4 + 100 + Item.overhead_bytes) in
  let store, now = make_store ~max_bytes:(12 * value_chunk) Store.Rp in
  let admit = memory_tier store in
  let key i = Printf.sprintf "k%03d" i in
  let set i data = set_ok store (key i) data in
  for i = 0 to 9 do set i (String.make 100 'a') done;
  set 1 (String.make 100 'b');  (* same size *)
  set 2 (String.make 300 'c');  (* another slab class *)
  set 2 (String.make 10 'd');  (* and another *)
  ignore (Store.delete store (key 3));
  ignore (Store.delete store (key 3));
  now := !now +. 1.0;
  for i = 10 to 39 do set i (String.make 100 'e') done;  (* demotions *)
  Alcotest.(check bool) "demoted" true (Store.tier_demotions store > 0);
  admit := false;
  for i = 40 to 59 do set i (String.make 120 'f') done;  (* plain evictions *)
  Alcotest.(check bool) "evicted" true (Store.evictions store > 0);
  let cold = List.filter (fun i -> Store.tier_location store (key i) <> None) (List.init 60 Fun.id) in
  (match cold with
  | i :: j :: _ ->
      set i (String.make 100 'g');  (* overwrite a cold marker *)
      ignore (Store.delete store (key j))  (* delete one *)
  | _ -> Alcotest.fail "fewer than two cold markers");
  ignore (Store.touch store ~key:(key 59) ~exptime:100);
  ignore (Store.append store ~key:(key 58) ~data:"++");
  (* Hot items through the walk (no tier: cold keys are skipped), cold
     markers through their locations. *)
  Store.set_tier store None;
  let charged = ref 0 and items = ref 0 in
  ignore
    (Store.iter_items store ~f:(fun k ~flags:_ ~exptime:_ ~cas:_ data ->
         incr items;
         charged :=
           !charged + chunk_for (String.length k + String.length data + Item.overhead_bytes)));
  List.iter
    (fun i ->
      if Store.tier_location store (key i) <> None then begin
        incr items;
        charged := !charged + chunk_for (String.length (key i) + Item.overhead_bytes)
      end)
    (List.init 60 Fun.id);
  Alcotest.(check int) "every item counted" (Store.items store) !items;
  Alcotest.(check int) "bytes = chunks of live items" !charged (Store.bytes store)

(* Model-based: both backends against Hashtbl (no expiry, no eviction). *)
let model_property name backend =
  QCheck.Test.make
    ~name:(name ^ " store matches model")
    ~count:100
    QCheck.(
      list_of_size Gen.(int_bound 60)
        (triple (int_bound 3) (int_bound 15) (string_of_size Gen.(int_bound 20))))
    (fun ops ->
      let store, _ = make_store backend in
      let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (kind, k, data) ->
          let key = Printf.sprintf "key%d" k in
          match kind with
          | 0 ->
              ignore (Store.set store ~key ~flags:0 ~exptime:0 ~data);
              Hashtbl.replace model key data
          | 1 ->
              let a = Store.delete store key in
              let b = Hashtbl.mem model key in
              Hashtbl.remove model key;
              if a <> b then QCheck.Test.fail_reportf "delete %s: %b vs %b" key a b
          | 2 ->
              if Store.add store ~key ~flags:0 ~exptime:0 ~data = Store.Stored
              then
                if Hashtbl.mem model key then
                  QCheck.Test.fail_reportf "add clobbered %s" key
                else Hashtbl.replace model key data
          | _ ->
              let got = get_data store key in
              let want = Hashtbl.find_opt model key in
              if got <> want then QCheck.Test.fail_reportf "get %s mismatch" key)
        ops;
      Store.items store = Hashtbl.length model)

let () =
  let per_backend test =
    List.map (fun (name, b) -> Alcotest.test_case name `Quick (test b)) backends
  in
  Alcotest.run "store"
    [
      ("get/set", per_backend test_get_set);
      ("flags", per_backend test_flags_roundtrip);
      ("add/replace", per_backend test_add_replace);
      ("cas", per_backend test_cas);
      ("append/prepend", per_backend test_append_prepend);
      ("delete", per_backend test_delete);
      ("counters", per_backend test_counters);
      ("expiry", per_backend test_expiry);
      ("absolute expiry", per_backend test_expiry_absolute);
      ("expired storable", per_backend test_expired_key_is_storable);
      ("touch", per_backend test_touch);
      ("flush_all", per_backend test_flush_all);
      ("eviction budget", per_backend test_eviction_on_budget);
      ( "eviction policy",
        [
          Alcotest.test_case "lock backend exact LRU" `Quick test_lock_eviction_is_lru;
          Alcotest.test_case "rp backend second chance" `Quick
            test_rp_eviction_second_chance;
          Alcotest.test_case "second chances bounded per sweep" `Quick
            test_clock_budget_all_hot;
        ] );
      ( "qsbr mode",
        [
          Alcotest.test_case "expiry" `Quick test_qsbr_expiry;
          Alcotest.test_case "eviction" `Quick test_qsbr_eviction;
        ] );
      ("exptime threshold", per_backend test_exptime_threshold);
      ("exptime logged absolute", per_backend test_exptime_logged_absolute);
      ("stats", per_backend test_stats);
      ("get_many", per_backend test_get_many);
      ("set_slice", per_backend test_set_slice_logs_as_set);
      ("expiry edges", per_backend test_expiry_edges);
      ( "allocation",
        [
          Alcotest.test_case "get_many hit, rp/qsbr" `Quick test_get_hit_allocation;
          Alcotest.test_case "32-key get_many, rp/qsbr" `Quick
            test_get_many_batch_allocation;
          Alcotest.test_case "same-size set overwrite, rp/qsbr" `Quick
            test_set_overwrite_allocation;
          Alcotest.test_case "overwrites promote nothing, lock" `Quick
            (test_overwrite_promotion Store.Lock);
          Alcotest.test_case "overwrites promote nothing, rp/memb" `Quick
            (test_overwrite_promotion ~rcu_mode:Store.Memb Store.Rp);
          Alcotest.test_case "overwrites promote nothing, rp/qsbr" `Quick
            (test_overwrite_promotion ~rcu_mode:Store.Qsbr Store.Rp);
        ] );
      ("slab", [ Alcotest.test_case "bytes match live items" `Quick test_slab_exact ]);
      ( "stripes",
        [
          Alcotest.test_case "a held stripe blocks nothing else" `Quick
            test_held_stripe_blocks_nothing_else;
        ]
        @ List.concat_map
            (fun (name, mode) ->
              [
                Alcotest.test_case ("flush_all with splits pending, " ^ name) `Quick
                  (test_flush_with_pending_splits mode);
                Alcotest.test_case ("auto-resize behind a held stripe, " ^ name) `Quick
                  (test_resize_behind_held_stripe mode);
              ])
            rcu_modes );
      ( "model",
        List.map (fun (n, b) -> QCheck_alcotest.to_alcotest (model_property n b)) backends
      );
    ]
