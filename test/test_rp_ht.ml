(* Unit and property tests for the resizable relativistic hash table. *)

let make ?(initial_size = 8) ?(auto_resize = false) () =
  Rp_ht.create ~initial_size ~auto_resize ~hash:Rp_hashes.Hashfn.of_int
    ~equal:Int.equal ()

let make_str ?(initial_size = 8) ?(auto_resize = false) () =
  Rp_ht.create ~initial_size ~auto_resize ~hash:Rp_hashes.Hashfn.fnv1a_string
    ~equal:String.equal ()

let check_valid t =
  match Rp_ht.validate t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant violated: %s" msg

(* Run a locked body as the held-stripe API's callers do: between
   [enter_key] and [leave_key] for the key's hash. *)
let under_key t ~hash f =
  let stripe = Rp_ht.enter_key t ~hash in
  match f () with
  | v ->
      Rp_ht.leave_key t stripe;
      v
  | exception e ->
      Rp_ht.leave_key t stripe;
      raise e

let test_empty () =
  let t = make () in
  Alcotest.(check (option int)) "find on empty" None (Rp_ht.find t 42);
  Alcotest.(check int) "length" 0 (Rp_ht.length t);
  Alcotest.(check int) "size" 8 (Rp_ht.size t);
  check_valid t

let test_insert_find () =
  let t = make () in
  Rp_ht.insert t 1 "one";
  Rp_ht.insert t 2 "two";
  Rp_ht.insert t 3 "three";
  Alcotest.(check (option string)) "find 1" (Some "one") (Rp_ht.find t 1);
  Alcotest.(check (option string)) "find 2" (Some "two") (Rp_ht.find t 2);
  Alcotest.(check (option string)) "find 3" (Some "three") (Rp_ht.find t 3);
  Alcotest.(check (option string)) "find 4" None (Rp_ht.find t 4);
  Alcotest.(check int) "length" 3 (Rp_ht.length t);
  check_valid t

let test_insert_shadows () =
  let t = make () in
  Rp_ht.insert t 7 "old";
  Rp_ht.insert t 7 "new";
  Alcotest.(check (option string)) "newest wins" (Some "new") (Rp_ht.find t 7);
  Alcotest.(check int) "both bindings counted" 2 (Rp_ht.length t);
  Alcotest.(check bool) "remove newest" true (Rp_ht.remove t 7);
  Alcotest.(check (option string)) "old resurfaces" (Some "old") (Rp_ht.find t 7);
  check_valid t

let test_replace () =
  let t = make () in
  Rp_ht.replace t 7 "a";
  Rp_ht.replace t 7 "b";
  Alcotest.(check (option string)) "replaced" (Some "b") (Rp_ht.find t 7);
  Alcotest.(check int) "single binding" 1 (Rp_ht.length t);
  check_valid t

(* The slice exchange on keys held in a wider buffer: an unbound key is
   linked under a copy of its slice, a bound one has its value swapped
   and handed back. Keys of eight bytes or more are compared a word at a
   time, shorter ones byte by byte: keys differing only in their last
   byte, or one a prefix of the other, stay distinct. A slice past
   either end of the buffer is refused before anything is read or
   changed. Each exchange runs under its key's stripe. *)
let test_exchange_slice () =
  let t = make_str () in
  let hash = Rp_hashes.Hashfn.fnv1a_string in
  let keys = [ "k"; "key:0001"; "key:0002"; "key:00010"; "key:000100000001"; "key:000100000002" ] in
  let exchange key v =
    let buf = Bytes.of_string ("[[" ^ key ^ "]]") in
    under_key t ~hash:(hash key) (fun () ->
        Rp_ht.exchange_slice_locked t ~hash:(hash key) buf 2 (String.length key) v)
  in
  List.iteri
    (fun i key ->
      match exchange key i with
      | Rp_ht.Linked k -> Alcotest.(check string) ("linked " ^ key) key k
      | Rp_ht.Replaced _ -> Alcotest.failf "%s was not bound" key)
    keys;
  List.iteri
    (fun i key ->
      match exchange key (100 + i) with
      | Rp_ht.Replaced old -> Alcotest.(check int) ("replaced " ^ key) i old
      | Rp_ht.Linked _ -> Alcotest.failf "%s was bound" key)
    keys;
  List.iteri
    (fun i key -> Alcotest.(check (option int)) key (Some (100 + i)) (Rp_ht.find t key))
    keys;
  Alcotest.(check int) "one binding per key" (List.length keys) (Rp_ht.length t);
  let refused off len =
    Alcotest.check_raises
      (Printf.sprintf "slice %d+%d of 4 bytes" off len)
      (Invalid_argument "Rp_ht.exchange_slice_locked: the slice exceeds the buffer")
      (fun () ->
        under_key t ~hash:0 (fun () ->
            ignore (Rp_ht.exchange_slice_locked t ~hash:0 (Bytes.of_string "abcd") off len 0)))
  in
  refused (-1) 2;
  refused 0 (-1);
  refused 3 2;
  refused 5 0;
  Alcotest.(check int) "nothing linked by a refused slice" (List.length keys) (Rp_ht.length t);
  check_valid t

let test_remove () =
  let t = make () in
  for i = 0 to 9 do
    Rp_ht.insert t i (string_of_int i)
  done;
  Alcotest.(check bool) "remove present" true (Rp_ht.remove t 5);
  Alcotest.(check bool) "remove absent" false (Rp_ht.remove t 5);
  Alcotest.(check (option string)) "gone" None (Rp_ht.find t 5);
  Alcotest.(check int) "length" 9 (Rp_ht.length t);
  Rcu.barrier (Rp_ht.rcu t);
  check_valid t

let test_remove_sync () =
  let t = make () in
  Rp_ht.insert t 1 "x";
  Alcotest.(check bool) "removed" true (Rp_ht.remove_sync t 1);
  Alcotest.(check (option string)) "gone" None (Rp_ht.find t 1);
  check_valid t

let test_expand_preserves () =
  let t = make ~initial_size:4 () in
  for i = 0 to 99 do
    Rp_ht.insert t i (string_of_int (i * i))
  done;
  Rp_ht.resize t 64;
  Alcotest.(check int) "size" 64 (Rp_ht.size t);
  for i = 0 to 99 do
    Alcotest.(check (option string))
      (Printf.sprintf "find %d after expand" i)
      (Some (string_of_int (i * i)))
      (Rp_ht.find t i)
  done;
  check_valid t;
  let stats = Rp_ht.resize_stats t in
  Alcotest.(check int) "expands" 4 stats.expands

let test_shrink_preserves () =
  let t = make ~initial_size:64 () in
  for i = 0 to 99 do
    Rp_ht.insert t i (string_of_int (i * 7))
  done;
  Rp_ht.resize t 4;
  Alcotest.(check int) "size" 4 (Rp_ht.size t);
  for i = 0 to 99 do
    Alcotest.(check (option string))
      (Printf.sprintf "find %d after shrink" i)
      (Some (string_of_int (i * 7)))
      (Rp_ht.find t i)
  done;
  check_valid t;
  let stats = Rp_ht.resize_stats t in
  Alcotest.(check int) "shrinks" 4 stats.shrinks

let test_resize_roundtrip () =
  let t = make_str ~initial_size:8 () in
  for i = 0 to 199 do
    Rp_ht.insert t (Printf.sprintf "key-%d" i) i
  done;
  Rp_ht.resize t 256;
  check_valid t;
  Rp_ht.resize t 8;
  check_valid t;
  Rp_ht.resize t 128;
  check_valid t;
  for i = 0 to 199 do
    Alcotest.(check (option int))
      "value survives round trips" (Some i)
      (Rp_ht.find t (Printf.sprintf "key-%d" i))
  done

let test_resize_clamps () =
  let t =
    Rp_ht.create ~initial_size:16 ~min_size:8 ~max_size:32 ~auto_resize:false
      ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  Rp_ht.resize t 1;
  Alcotest.(check int) "clamped to min" 8 (Rp_ht.size t);
  Rp_ht.resize t 4096;
  Alcotest.(check int) "clamped to max" 32 (Rp_ht.size t)

let test_auto_resize_grows () =
  let t =
    Rp_ht.create ~initial_size:4 ~auto_resize:true ~hash:Rp_hashes.Hashfn.of_int
      ~equal:Int.equal ()
  in
  for i = 0 to 999 do
    Rp_ht.insert t i i
  done;
  Alcotest.(check bool) "table grew" true (Rp_ht.size t >= 1024);
  check_valid t

let test_auto_resize_shrinks () =
  let t =
    Rp_ht.create ~initial_size:4 ~min_size:4 ~auto_resize:true
      ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  for i = 0 to 999 do
    Rp_ht.insert t i i
  done;
  let grown = Rp_ht.size t in
  for i = 0 to 999 do
    ignore (Rp_ht.remove t i)
  done;
  Rcu.barrier (Rp_ht.rcu t);
  Alcotest.(check bool) "table shrank" true (Rp_ht.size t < grown);
  check_valid t

let test_move () =
  let t = make () in
  Rp_ht.insert t 1 "payload";
  Alcotest.(check bool) "moved" true (Rp_ht.move t ~from_key:1 ~to_key:2 Fun.id);
  Alcotest.(check (option string)) "source gone" None (Rp_ht.find t 1);
  Alcotest.(check (option string)) "dest bound" (Some "payload") (Rp_ht.find t 2);
  Alcotest.(check bool) "move absent" false (Rp_ht.move t ~from_key:1 ~to_key:3 Fun.id);
  Rcu.barrier (Rp_ht.rcu t);
  check_valid t

let test_move_transforms () =
  let t = make () in
  Rp_ht.insert t 1 "abc";
  ignore (Rp_ht.move t ~from_key:1 ~to_key:9 String.uppercase_ascii);
  Alcotest.(check (option string)) "transformed" (Some "ABC") (Rp_ht.find t 9);
  Rcu.barrier (Rp_ht.rcu t);
  check_valid t

let test_iter_fold () =
  let t = make () in
  for i = 0 to 49 do
    Rp_ht.insert t i i
  done;
  let sum = Rp_ht.fold t ~init:0 ~f:(fun acc _ v -> acc + v) in
  Alcotest.(check int) "fold sum" (49 * 50 / 2) sum;
  let seen = ref 0 in
  Rp_ht.iter t ~f:(fun _ _ -> incr seen);
  Alcotest.(check int) "iter count" 50 !seen

let test_iter_no_duplicates_after_resize () =
  let t = make ~initial_size:4 () in
  for i = 0 to 99 do
    Rp_ht.insert t i i
  done;
  Rp_ht.resize t 128;
  let seen = Hashtbl.create 128 in
  Rp_ht.iter t ~f:(fun k _ ->
      if Hashtbl.mem seen k then Alcotest.failf "key %d seen twice" k;
      Hashtbl.add seen k ());
  Alcotest.(check int) "all seen" 100 (Hashtbl.length seen)

let test_bucket_lengths () =
  let t = make ~initial_size:8 () in
  for i = 0 to 79 do
    Rp_ht.insert t i i
  done;
  let lengths = Rp_ht.bucket_lengths t in
  Alcotest.(check int) "bucket count" 8 (Array.length lengths);
  Alcotest.(check int) "total" 80 (Array.fold_left ( + ) 0 lengths)

let test_find_opt_hashed () =
  let t = make_str () in
  Rp_ht.insert t "hello" 5;
  let hash = Rp_hashes.Hashfn.fnv1a_string "hello" in
  Alcotest.(check (option int)) "hashed find" (Some 5)
    (Rp_ht.find_opt_hashed t ~hash "hello")

let test_load_factor () =
  let t = make ~initial_size:16 () in
  for i = 0 to 7 do
    Rp_ht.insert t i i
  done;
  Alcotest.(check (float 1e-9)) "load factor" 0.5 (Rp_ht.load_factor t)

let test_stripe_rounding () =
  let t = make ~initial_size:8 () in
  (* Default stripe count is [min 8 min_size]; min_size defaults to 4. *)
  Alcotest.(check int) "default stripes" 4 (Rp_ht.stripe_count t);
  let t2 =
    Rp_ht.create ~initial_size:8 ~stripes:3 ~hash:Rp_hashes.Hashfn.of_int
      ~equal:Int.equal ()
  in
  Alcotest.(check int) "rounded to power of two" 4 (Rp_ht.stripe_count t2);
  let t3 =
    Rp_ht.create ~initial_size:8 ~stripes:16 ~hash:Rp_hashes.Hashfn.of_int
      ~equal:Int.equal ()
  in
  Alcotest.(check int) "explicit stripes" 16 (Rp_ht.stripe_count t3);
  (* Stripes must divide every reachable size, so min_size was raised. *)
  Rp_ht.resize t3 1;
  Alcotest.(check bool) "min_size raised to stripes" true (Rp_ht.size t3 >= 16)

(* Lazy rehash leaves the table half-split: the auto-resize expansion
   publishes the larger array and returns, so buckets not yet touched by a
   writer still await their split. A batched walk over that state must see
   every binding (home-bucket filtering tolerates imprecise chains). *)
let test_iter_batched_half_split () =
  let t =
    Rp_ht.create ~initial_size:8 ~min_size:8 ~auto_resize:true
      ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  let n = 400 in
  for i = 0 to n - 1 do
    Rp_ht.insert t i i
  done;
  Alcotest.(check bool) "walk starts half-split" true (Rp_ht.pending_splits t > 0);
  let seen = Hashtbl.create n in
  let restarts =
    Rp_ht.iter_batched ~batch:4 t ~f:(fun k v ->
        if v <> k then Alcotest.failf "key %d bound to %d" k v;
        Hashtbl.replace seen k ())
  in
  Alcotest.(check int) "no shrink, no restarts" 0 restarts;
  Alcotest.(check int) "every binding seen" n (Hashtbl.length seen);
  (* The walk is read-only: it must not have completed any split. *)
  Alcotest.(check bool) "still half-split" true (Rp_ht.pending_splits t > 0);
  Rp_ht.complete_splits t;
  Alcotest.(check int) "splits drained" 0 (Rp_ht.pending_splits t);
  check_valid t

(* A shrink under a batched walk can move unvisited keys below its
   cursor, so the walk restarts from bucket 0 when the table it
   dereferences is smaller than one it walked (DESIGN §11
   "Snapshot-as-reader"). Made deterministic: the walk's first call
   waits, inside its read section, until a second domain's shrink has
   published the half-size array (the shrink then waits out that
   section before it returns). The walk must restart exactly once and
   still see every binding. *)
let test_iter_batched_restarts_on_shrink () =
  let t = make ~initial_size:64 () in
  let n = 48 in
  for i = 0 to n - 1 do
    Rp_ht.insert t i (string_of_int i)
  done;
  let go = Atomic.make false in
  let shrinker =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        Rp_ht.resize t 32)
  in
  let seen = Hashtbl.create n in
  let restarts =
    Rp_ht.iter_batched ~batch:4 t ~f:(fun k _ ->
        if not (Atomic.get go) then begin
          Atomic.set go true;
          while Rp_ht.size t = 64 do
            Domain.cpu_relax ()
          done
        end;
        Hashtbl.replace seen k ())
  in
  Domain.join shrinker;
  Alcotest.(check int) "one restart" 1 restarts;
  Alcotest.(check int) "every binding seen" n (Hashtbl.length seen);
  check_valid t

(* Integer [k] as a string key hashing as [k] does in an int table, so
   string tables built from it chain exactly as the int tables would. *)
let skey = string_of_int
let skey_hash s = Rp_hashes.Hashfn.of_int (int_of_string s)

(* [keys] as slices of one buffer, each at an odd offset behind a
   separator, and with the separator bytes and the slice ends chosen so
   a compare that read past a slice would see a difference. *)
let slices keys =
  let buf = Buffer.create 64 in
  let offs = Array.make (Array.length keys) 0 and lens = Array.make (Array.length keys) 0 in
  Array.iteri
    (fun i k ->
      Buffer.add_string buf "\xff";
      offs.(i) <- Buffer.length buf;
      lens.(i) <- String.length k;
      Buffer.add_string buf k)
    keys;
  Buffer.add_string buf "\xff";
  (Buffer.to_bytes buf, offs, lens)

(* [find_batch_hashed] over [keys] in one read section, as options. *)
let find_batch ~hash t keys =
  let n = Array.length keys in
  let hashes = Array.map hash keys in
  let buf, offs, lens = slices keys in
  let found = Array.make n Rp_list.Null in
  Rcu.with_read_current (Rp_ht.rcu t) (fun () ->
      Rp_ht.find_batch_hashed t ~buf ~offs ~lens ~hashes ~first:0 found n;
      Array.map (function Rp_list.Node nd -> Some nd.value | Rp_list.Null -> None) found)

(* A staged batch walks imprecise buckets too: mid-split, it finds what
   per-key lookups find, hits and misses alike, and splits nothing. *)
let test_find_batch_half_split () =
  let t =
    Rp_ht.create ~initial_size:8 ~min_size:8 ~auto_resize:true ~hash:skey_hash
      ~equal:String.equal ()
  in
  for i = 0 to 399 do
    Rp_ht.insert t (skey i) (i * 7)
  done;
  Alcotest.(check bool) "table is half-split" true (Rp_ht.pending_splits t > 0);
  let before = Rp_ht.lookups t in
  for b = 0 to 6 do
    let keys = Array.init 64 (fun i -> skey ((b * 64) + i)) in
    let want = Array.map (fun k -> Rp_ht.find_opt_hashed t ~hash:(skey_hash k) k) keys in
    Alcotest.(check (array (option int))) "batch = per-key" want (find_batch ~hash:skey_hash t keys)
  done;
  Alcotest.(check int) "each batch key counted once" (7 * 64 * 2) (Rp_ht.lookups t - before);
  Alcotest.(check bool) "still half-split" true (Rp_ht.pending_splits t > 0);
  check_valid t

(* String keys are heap blocks, so every prefetch stage runs: slot, first
   node, and the key string of a first node whose hash matches. Keys come
   in groups of four sharing one hash, so chains hold several nodes and a
   group's absent fourth key is a miss whose first node's hash collides
   with its own (the last group inserted heads its bucket). The table is
   half-split, and the lookup keys are fresh strings, so equality compares
   contents. Batches of 0, 1 and 64 keys equal the per-key lookups. *)
let test_find_batch_string_keys () =
  let index k = int_of_string (String.sub k 4 (String.length k - 4)) in
  let hash k = Rp_hashes.Hashfn.of_int (index k / 4) in
  let t =
    Rp_ht.create ~initial_size:8 ~min_size:8 ~auto_resize:true ~hash ~equal:String.equal ()
  in
  let groups = 200 in
  for i = 0 to (groups * 4) - 1 do
    if i mod 4 <> 3 then Rp_ht.insert t (Printf.sprintf "key:%d" i) (i * 7)
  done;
  Alcotest.(check bool) "table is half-split" true (Rp_ht.pending_splits t > 0);
  Alcotest.(check bool) "multi-node chains" true
    (Array.exists (fun l -> l >= 4) (Rp_ht.bucket_lengths t));
  let last = (groups * 4) - 1 in
  let check_batch keys =
    let want = Array.map (fun k -> Rp_ht.find_opt_hashed t ~hash:(hash k) k) keys in
    Alcotest.(check (array (option int)))
      (Printf.sprintf "batch of %d = per-key" (Array.length keys))
      want (find_batch ~hash t keys)
  in
  let key i = Printf.sprintf "key:%d" i in
  check_batch [||];
  check_batch [| key 5 |];
  check_batch [| key last |];
  Alcotest.(check (option int)) "colliding miss" None
    (Rp_ht.find_opt_hashed t ~hash:(hash (key last)) (key last));
  for b = 0 to (groups * 4 / 64) - 1 do
    check_batch (Array.init 64 (fun i -> key ((b * 64) + i)))
  done;
  (* absent groups past the end: misses on other groups' chains *)
  check_batch (Array.init 64 (fun i -> key (last + 1 + (i * 5))));
  (* a slice past the buffer's end is refused before a compare reads it *)
  Alcotest.check_raises "slice past the buffer"
    (Invalid_argument "Rp_ht.find_batch_hashed: a slice exceeds the buffer") (fun () ->
      Rcu.with_read_current (Rp_ht.rcu t) (fun () ->
          Rp_ht.find_batch_hashed t ~buf:(Bytes.of_string (key 5)) ~offs:[| 1 |]
            ~lens:[| String.length (key 5) |] ~hashes:[| hash (key 5) |] ~first:0
            (Array.make 1 Rp_list.Null) 1));
  Alcotest.(check bool) "still half-split" true (Rp_ht.pending_splits t > 0);
  check_valid t

(* The staged walk allocates nothing: not a word per batch. Keys of
   3 to 21 bytes run both the byte and the word compare. *)
let test_find_batch_allocation () =
  let t = make_str ~initial_size:64 () in
  let key i = String.make (3 + (i mod 19)) (Char.chr (97 + (i mod 26))) ^ string_of_int i in
  for i = 0 to 99 do
    Rp_ht.insert t (key i) i
  done;
  let keys = Array.init 64 (fun i -> key (i * 2)) in
  let hashes = Array.map Rp_hashes.Hashfn.fnv1a_string keys in
  let buf, offs, lens = slices keys in
  let found = Array.make 64 Rp_list.Null in
  let rcu = Rp_ht.rcu t in
  let walk () = Rp_ht.find_batch_hashed t ~buf ~offs ~lens ~hashes ~first:0 found 64 in
  Rcu.read_lock_current rcu;
  walk ();
  let w0 = Gc.minor_words () in
  walk ();
  let words = Gc.minor_words () -. w0 in
  Rcu.read_unlock_current rcu;
  Alcotest.(check int) "hits" 50
    (Array.fold_left (fun n l -> match l with Rp_list.Node _ -> n + 1 | Rp_list.Null -> n) 0 found);
  Alcotest.(check (float 0.)) "minor words" 0. words

(* --- resize memory --- *)

(* Words a steady resize allocates: after one warm-up cycle between [keys]
   and [2 * keys] buckets, [cycles] more. [Gc.full_major] settles the
   major-heap counters before each reading, and nothing else allocates in
   this domain, so the counts are exact. Direct-major words (major minus
   promoted) are blocks too large for the minor heap: bucket and
   split-state arrays. *)
let resize_allocation ~keys =
  let cycles = 8 in
  let t = make ~initial_size:keys () in
  for i = 0 to keys - 1 do
    Rp_ht.insert t i i
  done;
  let cycle () =
    Rp_ht.resize t (2 * keys);
    Rp_ht.resize t keys
  in
  cycle ();
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  for _ = 1 to cycles do
    cycle ()
  done;
  let minor = Gc.minor_words () -. m0 in
  Gc.full_major ();
  let s1 = Gc.quick_stat () in
  check_valid t;
  let direct =
    s1.major_words -. s0.major_words -. (s1.promoted_words -. s0.promoted_words)
  in
  (direct, minor /. float_of_int (2 * cycles))

(* A steady resize reuses the arrays earlier grace periods freed and
   unzips without allocating: no direct-major word at either size, and
   minor words per resize that stay flat from 2^10 to 2^14 keys (16x the
   buckets). *)
let test_resize_allocation () =
  let small_direct, small_minor = resize_allocation ~keys:(1 lsl 10) in
  let large_direct, large_minor = resize_allocation ~keys:(1 lsl 14) in
  Alcotest.(check (float 0.)) "direct-major words, 2^10 keys" 0. small_direct;
  Alcotest.(check (float 0.)) "direct-major words, 2^14 keys" 0. large_direct;
  if large_minor > small_minor +. 16. then
    Alcotest.failf "minor words per resize grow with the table: %.1f at 2^10 keys, %.1f at 2^14"
      small_minor large_minor

(* A retired bucket array kept for reuse pins nothing: once its grace
   period has passed it holds no chain heads, so bindings removed later
   are collectable. Covers both retirements: the parent array of an
   expansion and the larger array of a shrink. *)
let test_spare_pins_nothing () =
  let n = 512 in
  let t = make ~initial_size:n () in
  let live = Weak.create n in
  let fill () =
    for i = 0 to n - 1 do
      let v = Bytes.make 8 'v' in
      Weak.set live i (Some v);
      Rp_ht.insert t i v
    done
  in
  let remove_all_and_check what =
    for i = 0 to n - 1 do
      if not (Rp_ht.remove_sync t i) then Alcotest.failf "%s: key %d missing" what i
    done;
    Gc.full_major ();
    for i = 0 to n - 1 do
      if Weak.check live i then Alcotest.failf "%s: removed value %d still reachable" what i
    done
  in
  fill ();
  Rp_ht.resize t (2 * n);
  remove_all_and_check "after an expand";
  fill ();
  Rp_ht.resize t n;
  remove_all_and_check "after a shrink";
  check_valid t

(* The reuse rule: a grace period that began before a bucket array's
   retirement does not free it. A reader holds a read section open; a
   [remove_sync] starts its grace period (which waits for that reader;
   the [rcu.synchronize.pre] failpoint, armed to yield, counts the start);
   then a third domain resizes back and forth. The reader keeps looking
   up every resident key until the first expansion is published, then
   leaves, releasing the grace periods. No lookup may miss, before or
   after, and the table must validate. *)
let test_gp_before_retirement () =
  let rcu = Rcu.create () in
  let n = 256 in
  let t =
    Rp_ht.create ~rcu ~initial_size:n ~auto_resize:false
      ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  for i = 0 to n - 1 do
    Rp_ht.insert t i (i * 3)
  done;
  Rp_ht.insert t n 0;
  let misses = Atomic.make 0 in
  let lookup_all () =
    for i = 0 to n - 1 do
      if Rp_ht.find t i <> Some (i * 3) then Atomic.incr misses
    done
  in
  let in_section = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        Rcu.with_read_current rcu (fun () ->
            Atomic.set in_section true;
            while Rp_ht.size t = n do
              lookup_all ()
            done;
            lookup_all ()))
  in
  while not (Atomic.get in_section) do
    Domain.cpu_relax ()
  done;
  Rp_fault.arm "rcu.synchronize.pre" ~trigger:Always ~action:Yield;
  let remover = Domain.spawn (fun () -> Rp_ht.remove_sync t n) in
  while Rp_fault.hits "rcu.synchronize.pre" = 0 do
    Domain.cpu_relax ()
  done;
  Rp_fault.disarm "rcu.synchronize.pre";
  let resizer =
    Domain.spawn (fun () ->
        for _ = 1 to 3 do
          Rp_ht.resize t (2 * n);
          Rp_ht.resize t n
        done)
  in
  Domain.join reader;
  Alcotest.(check bool) "remove_sync removed" true (Domain.join remover);
  Domain.join resizer;
  lookup_all ();
  Alcotest.(check int) "false misses" 0 (Atomic.get misses);
  Alcotest.(check (option int)) "removed key gone" None (Rp_ht.find t n);
  check_valid t

(* --- model-based property tests --- *)

type op =
  | Insert of int * int
  | Remove of int
  | Replace of int * int
  | Exchange of int * int
  | Exchange_slice of int * int
  | Remove_locked of int
  | Resize of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Insert (k, v)) (int_bound 100) (int_bound 1000));
        (2, map (fun k -> Remove k) (int_bound 100));
        (2, map2 (fun k v -> Replace (k, v)) (int_bound 100) (int_bound 1000));
        (2, map2 (fun k v -> Exchange (k, v)) (int_bound 100) (int_bound 1000));
        (2, map2 (fun k v -> Exchange_slice (k, v)) (int_bound 100) (int_bound 1000));
        (2, map (fun k -> Remove_locked k) (int_bound 100));
        (1, map (fun s -> Resize (1 lsl s)) (int_bound 8));
      ])

let show_op = function
  | Insert (k, v) -> Printf.sprintf "Insert (%d, %d)" k v
  | Remove k -> Printf.sprintf "Remove %d" k
  | Replace (k, v) -> Printf.sprintf "Replace (%d, %d)" k v
  | Exchange (k, v) -> Printf.sprintf "Exchange (%d, %d)" k v
  | Exchange_slice (k, v) -> Printf.sprintf "Exchange_slice (%d, %d)" k v
  | Remove_locked k -> Printf.sprintf "Remove_locked %d" k
  | Resize n -> Printf.sprintf "Resize %d" n

(* Reference model: newest-first association list. *)
let rec drop_first k = function
  | [] -> []
  | (k', _) :: rest when k' = k -> rest
  | kv :: rest -> kv :: drop_first k rest

(* replace/exchange update only the newest (first) binding, or insert *)
let rec update_first k v = function
  | [] -> [ (k, v) ]
  | (k', _) :: rest when k' = k -> (k', v) :: rest
  | kv :: rest -> kv :: update_first k v rest

let model_apply model = function
  | Insert (k, v) -> (k, v) :: model
  | Remove k | Remove_locked k -> drop_first k model
  | Replace (k, v) | Exchange (k, v) | Exchange_slice (k, v) ->
      if List.mem_assoc k model then update_first k v model else (k, v) :: model
  | Resize _ -> model

(* A fresh memb instance whose queued callbacks the test counts: a
   generated sequence removes at most 40 keys, under the 64 that would
   flush the queue by itself, so every reclamation callback stays queued
   until [Rcu.barrier] ends the grace period. *)
let show_opt = function Some v -> string_of_int v | None -> "None"

(* Each op against the table, checking what it returns against the model
   before the op. A removal must park exactly one reclamation callback
   (none for a miss) and mark nothing itself: the table stays valid with
   every callback parked, and once they run — the grace period over — no
   reachable node carries the mark. *)
let table_apply t model op =
  let hash = Rp_hashes.Hashfn.of_int in
  let expect what want got =
    if want <> got then
      QCheck.Test.fail_reportf "%s: model %s, table %s" what (show_opt want)
        (show_opt got)
  in
  match op with
  | Insert (k, v) -> Rp_ht.insert t (skey k) v
  | Remove k -> ignore (Rp_ht.remove t (skey k))
  | Replace (k, v) -> Rp_ht.replace t (skey k) v
  | Exchange (k, v) ->
      expect (show_op op) (List.assoc_opt k model)
        (under_key t ~hash:(hash k) (fun () -> Rp_ht.exchange_locked t ~hash:(hash k) (skey k) v))
  | Exchange_slice (k, v) -> (
      (* the key in the middle of a wider buffer *)
      let buf = Bytes.of_string ("<" ^ skey k ^ ">") in
      match
        ( List.assoc_opt k model,
          under_key t ~hash:(hash k) (fun () ->
              Rp_ht.exchange_slice_locked t ~hash:(hash k) buf 1 (Bytes.length buf - 2) v) )
      with
      | Some want, Rp_ht.Replaced got -> expect (show_op op) (Some want) (Some got)
      | None, Rp_ht.Linked key when key = skey k -> ()
      | _, Rp_ht.Linked key -> QCheck.Test.fail_reportf "%s: linked %S" (show_op op) key
      | None, Rp_ht.Replaced got -> expect (show_op op) None (Some got))
  | Remove_locked k ->
      let before = Rcu.pending_callbacks (Rp_ht.rcu t) in
      let want = List.assoc_opt k model in
      expect (show_op op) want
        (under_key t ~hash:(hash k) (fun () -> Rp_ht.remove_locked t ~hash:(hash k) (skey k)));
      let deferred = Rcu.pending_callbacks (Rp_ht.rcu t) - before in
      if deferred <> Option.fold ~none:0 ~some:(fun _ -> 1) want then
        QCheck.Test.fail_reportf "%s parked %d reclamation callbacks" (show_op op) deferred
  | Resize n -> Rp_ht.resize t n

let prop_matches_model =
  QCheck.Test.make ~name:"table matches model under random ops" ~count:200
    (QCheck.make ~print:(fun l -> String.concat "; " (List.map show_op l))
       QCheck.Gen.(list_size (int_bound 80) op_gen))
    (fun ops ->
      let t =
        Rp_ht.create ~initial_size:4 ~auto_resize:false ~hash:skey_hash ~equal:String.equal ()
      in
      let model =
        List.fold_left
          (fun model op ->
            table_apply t model op;
            model_apply model op)
          [] ops
      in
      let valid when_ =
        match Rp_ht.validate t with
        | Ok () -> ()
        | Error msg -> QCheck.Test.fail_reportf "invariant (%s): %s" when_ msg
      in
      valid "callbacks parked";
      let keys = Array.init 101 skey in
      let staged = find_batch ~hash:skey_hash t keys in
      Array.iteri
        (fun k key ->
          let per_key = Rp_ht.find_opt_hashed t ~hash:(skey_hash key) key in
          if staged.(k) <> per_key then
            QCheck.Test.fail_reportf "key %d: per-key %s, staged batch %s" k
              (show_opt per_key) (show_opt staged.(k)))
        keys;
      Rcu.barrier (Rp_ht.rcu t);
      valid "grace period over";
      List.for_all
        (fun k ->
          let expected = List.assoc_opt k model in
          let got = Rp_ht.find t (skey k) in
          if expected <> got then
            QCheck.Test.fail_reportf "key %d: model %s, table %s" k (show_opt expected)
              (show_opt got)
          else true)
        (List.init 101 Fun.id))

let prop_resize_preserves_all =
  QCheck.Test.make ~name:"any resize sequence preserves contents" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 1 6) (int_range 0 9)) (int_range 0 50))
    (fun (size_exps, n_keys) ->
      let t = make ~initial_size:8 () in
      for i = 0 to n_keys - 1 do
        Rp_ht.insert t i i
      done;
      List.iter (fun e -> Rp_ht.resize t (1 lsl e)) size_exps;
      (match Rp_ht.validate t with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "invariant: %s" msg);
      List.for_all (fun i -> Rp_ht.find t i = Some i) (List.init n_keys Fun.id))

let qcheck_tests =
  List.map (QCheck_alcotest.to_alcotest ~long:false)
    [ prop_matches_model; prop_resize_preserves_all ]

let () =
  Alcotest.run "rp_ht"
    [
      ( "basic",
        [
          Alcotest.test_case "empty table" `Quick test_empty;
          Alcotest.test_case "insert and find" `Quick test_insert_find;
          Alcotest.test_case "insert shadows" `Quick test_insert_shadows;
          Alcotest.test_case "replace" `Quick test_replace;
          Alcotest.test_case "exchange_slice" `Quick test_exchange_slice;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "remove_sync" `Quick test_remove_sync;
          Alcotest.test_case "iter and fold" `Quick test_iter_fold;
          Alcotest.test_case "bucket lengths" `Quick test_bucket_lengths;
          Alcotest.test_case "find_opt_hashed" `Quick test_find_opt_hashed;
          Alcotest.test_case "find_batch_hashed allocates nothing" `Quick
            test_find_batch_allocation;
          Alcotest.test_case "load factor" `Quick test_load_factor;
        ] );
      ( "resize",
        [
          Alcotest.test_case "expand preserves contents" `Quick test_expand_preserves;
          Alcotest.test_case "shrink preserves contents" `Quick test_shrink_preserves;
          Alcotest.test_case "resize round trips" `Quick test_resize_roundtrip;
          Alcotest.test_case "resize clamps to bounds" `Quick test_resize_clamps;
          Alcotest.test_case "auto-resize grows" `Quick test_auto_resize_grows;
          Alcotest.test_case "auto-resize shrinks" `Quick test_auto_resize_shrinks;
          Alcotest.test_case "iter sees no duplicates after resize" `Quick
            test_iter_no_duplicates_after_resize;
          Alcotest.test_case "stripe rounding" `Quick test_stripe_rounding;
          Alcotest.test_case "iter_batched over half-split table" `Quick
            test_iter_batched_half_split;
          Alcotest.test_case "iter_batched restarts on a shrink" `Quick
            test_iter_batched_restarts_on_shrink;
          Alcotest.test_case "find_batch_hashed over half-split table" `Quick
            test_find_batch_half_split;
          Alcotest.test_case "find_batch_hashed with string keys" `Quick
            test_find_batch_string_keys;
          Alcotest.test_case "steady resize allocates no arrays" `Quick
            test_resize_allocation;
          Alcotest.test_case "retired arrays pin no removed value" `Quick
            test_spare_pins_nothing;
          Alcotest.test_case "grace period begun before retirement frees nothing" `Quick
            test_gp_before_retirement;
        ] );
      ( "move",
        [
          Alcotest.test_case "move rebinds" `Quick test_move;
          Alcotest.test_case "move transforms value" `Quick test_move_transforms;
        ] );
      ("properties", qcheck_tests);
    ]
