(* Cross-module concurrency torture tests (rcutorture-flavoured).

   These run real domains and verify the paper's consistency guarantee under
   adversarial interleavings: resident keys must be visible to every lookup
   at every moment, across resizes and writer churn, on every table
   implementation. *)

let duration = 0.4

(* Generic torture: [threads] readers verify resident keys while a resizer
   flips sizes and a writer churns a disjoint key range. *)
let torture (module T : Rp_baseline.Table_intf.TABLE) ~with_resize () =
  let resident = 512 in
  let t = T.create ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ~size:256 () in
  for i = 0 to resident - 1 do
    T.insert t i (i * 3)
  done;
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let reader seed =
    Domain.spawn (fun () ->
        let prng = Rp_workload.Prng.create ~seed in
        let checks = ref 0 in
        while not (Atomic.get stop) do
          let k = Rp_workload.Prng.below prng resident in
          (match T.find t k with
          | Some v when v = k * 3 -> ()
          | Some _ | None -> Atomic.incr violations);
          incr checks
        done;
        T.reader_exit t;
        !checks)
  in
  let writer =
    Domain.spawn (fun () ->
        let prng = Rp_workload.Prng.create ~seed:99 in
        while not (Atomic.get stop) do
          let k = resident + Rp_workload.Prng.below prng 256 in
          if Rp_workload.Prng.bool prng then T.insert t k k
          else ignore (T.remove t k)
        done)
  in
  let resizer =
    if with_resize then
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get stop) do
               T.resize t 2048;
               T.resize t 128
             done))
    else None
  in
  let readers = List.init 2 (fun i -> reader (i + 1)) in
  Unix.sleepf duration;
  Atomic.set stop true;
  let checks = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  Domain.join writer;
  Option.iter Domain.join resizer;
  Alcotest.(check int) "no lookup violations" 0 (Atomic.get violations);
  Alcotest.(check bool) "made progress" true (checks > 0)

(* Staged batch lookups racing a resizer: two reader domains look up 32
   resident keys at a time with [Rp_ht.find_batch_hashed], one read
   section per batch, while a third domain expands and shrinks the table
   and a writer churns a disjoint key range. Every resident key must be
   found, with its value, in every batch. *)
let batch_torture ~qsbr () =
  let resident = 512 and batch = 32 in
  let key i = Printf.sprintf "key:%06d" i in
  let hash = Rp_hashes.Hashfn.fnv1a_string in
  let rcu = Rcu.create ~mode:(if qsbr then Qsbr else Memb) () in
  let t =
    Rp_ht.create ~rcu ~initial_size:256 ~auto_resize:false ~hash ~equal:String.equal ()
  in
  for i = 0 to resident - 1 do
    Rp_ht.insert t (key i) (i * 3)
  done;
  let stop = Atomic.make false and violations = Atomic.make 0 in
  (* Each batch's keys are slices of one buffer, one after another. *)
  let klen = String.length (key 0) in
  let reader seed =
    Domain.spawn (fun () ->
        let prng = Rp_workload.Prng.create ~seed in
        let keys = Array.make batch 0 and hashes = Array.make batch 0 in
        let buf = Bytes.create (batch * klen) in
        let offs = Array.init batch (fun i -> i * klen) and lens = Array.make batch klen in
        let found = Array.make batch Rp_list.Null in
        let batches = ref 0 in
        while not (Atomic.get stop) do
          for i = 0 to batch - 1 do
            keys.(i) <- Rp_workload.Prng.below prng resident;
            let k = key keys.(i) in
            Bytes.blit_string k 0 buf offs.(i) klen;
            hashes.(i) <- hash k
          done;
          Rcu.read_lock_current rcu;
          Rp_ht.find_batch_hashed t ~buf ~offs ~lens ~hashes ~first:0 found batch;
          for i = 0 to batch - 1 do
            match found.(i) with
            | Rp_list.Node n when n.value = keys.(i) * 3 -> ()
            | Rp_list.Node _ | Rp_list.Null -> Atomic.incr violations
          done;
          Rcu.read_unlock_current rcu;
          incr batches
        done;
        Rcu.offline_current rcu;
        !batches)
  in
  let writer =
    Domain.spawn (fun () ->
        let prng = Rp_workload.Prng.create ~seed:99 in
        while not (Atomic.get stop) do
          let k = resident + Rp_workload.Prng.below prng 256 in
          if Rp_workload.Prng.bool prng then Rp_ht.replace t (key k) k
          else ignore (Rp_ht.remove t (key k))
        done;
        Rcu.offline_current rcu)
  in
  let resizer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Rp_ht.resize t 2048;
          Rp_ht.resize t 128
        done;
        Rcu.offline_current rcu)
  in
  let readers = List.init 2 (fun i -> reader (i + 1)) in
  Unix.sleepf duration;
  Atomic.set stop true;
  let batches = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  Domain.join writer;
  Domain.join resizer;
  Alcotest.(check int) "no batch lookup violations" 0 (Atomic.get violations);
  Alcotest.(check bool) "made progress" true (batches > 0)

let rp_table = (module Rp_baseline.Rp_table.Resizable : Rp_baseline.Table_intf.TABLE)
let qsbr_table = (module Rp_baseline.Rp_table.Qsbr : Rp_baseline.Table_intf.TABLE)
let ddds_table = (module Rp_baseline.Ddds_ht : Rp_baseline.Table_intf.TABLE)
let rwlock_table = (module Rp_baseline.Rwlock_ht : Rp_baseline.Table_intf.TABLE)
let lock_table = (module Rp_baseline.Lock_ht : Rp_baseline.Table_intf.TABLE)
let xu_table = (module Rp_baseline.Xu_ht : Rp_baseline.Table_intf.TABLE)

(* RP-specific: whole-table invariant must hold after the dust settles. *)
let test_rp_invariants_after_torture () =
  let t =
    Rp_ht.create ~initial_size:128 ~auto_resize:false
      ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  for i = 0 to 511 do
    Rp_ht.insert t i i
  done;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let prng = Rp_workload.Prng.create ~seed:5 in
        while not (Atomic.get stop) do
          let k = 1000 + Rp_workload.Prng.below prng 500 in
          if Rp_workload.Prng.bool prng then Rp_ht.insert t k k
          else ignore (Rp_ht.remove t k)
        done)
  in
  let resizer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Rp_ht.resize t 4096;
          Rp_ht.resize t 64
        done)
  in
  Unix.sleepf duration;
  Atomic.set stop true;
  Domain.join writer;
  Domain.join resizer;
  Rcu.barrier (Rp_ht.rcu t);
  (match Rp_ht.validate t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "post-torture invariant: %s" msg);
  let stats = Rp_ht.resize_stats t in
  Alcotest.(check bool) "resizes happened" true (stats.expands > 0 && stats.shrinks > 0)

(* The atomic-move guarantee: a reader looking for "the entry" under either
   key must never find both absent. A move publishes its destination
   before unlinking its source, so a reader that looks up the source and
   then the destination, both within one move, finds at least one. A pair
   straddling two moves may legitimately find neither (the destination
   checked before one move's insert, the source after the next move's
   unlink), so the mover counts its completed moves and a reader keeps
   only the pairs that saw no move complete. Move [r] goes A->B when [r]
   is even, B->A when odd. *)
let test_move_never_neither () =
  let t =
    Rp_ht.create ~initial_size:64 ~auto_resize:false ~hash:Rp_hashes.Hashfn.of_int
      ~equal:Int.equal ()
  in
  let key_a = 1 and key_b = 2 in
  Rp_ht.insert t key_a "payload";
  let stop = Atomic.make false in
  let rounds = Atomic.make 0 in
  let neither = Atomic.make 0 in
  let fenced = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let r = Atomic.get rounds in
          let from_key, to_key = if r land 1 = 0 then (key_a, key_b) else (key_b, key_a) in
          let both_absent = Rp_ht.find t from_key = None && Rp_ht.find t to_key = None in
          if Atomic.get rounds = r then begin
            Atomic.incr fenced;
            if both_absent then Atomic.incr neither
          end
        done)
  in
  let move_round () =
    ignore (Rp_ht.move t ~from_key:key_a ~to_key:key_b Fun.id);
    Atomic.incr rounds;
    ignore (Rp_ht.move t ~from_key:key_b ~to_key:key_a Fun.id);
    Atomic.incr rounds
  in
  for _ = 1 to 2000 do
    move_round ()
  done;
  (* On a loaded machine the reader domain may not have run yet: keep
     moving until it has checked a pair, for at most 5 s. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get fenced = 0 && Unix.gettimeofday () < deadline do
    move_round ()
  done;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check int) "never both absent" 0 (Atomic.get neither);
  Alcotest.(check bool) "some lookup pairs within one move" true (Atomic.get fenced > 0)

(* Value updates via replace must be atomic: readers see old or new, never
   an interleaving. *)
let test_replace_is_atomic () =
  let t =
    Rp_ht.create ~initial_size:16 ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  Rp_ht.insert t 1 (0, 0);
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          match Rp_ht.find t 1 with
          | Some (a, b) -> if b <> a * 7 then Atomic.incr torn
          | None -> Atomic.incr torn
        done)
  in
  for i = 1 to 50_000 do
    Rp_ht.replace t 1 (i, i * 7)
  done;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check int) "no torn values" 0 (Atomic.get torn)

(* [replace is atomic] for the slice exchange on a string-keyed table:
   the writer swaps key "k"'s value through [Rp_ht.exchange_slice_locked]
   under the key's stripe ([enter_key]/[leave_key]), its key a slice of
   a wider buffer, and between swaps links fresh keys the same way, so
   auto-resize keeps expanding the table and the exchanges run over
   lazily split buckets. A reader racing them must always find "k"
   bound to a whole pair, never missing or torn. *)
let test_slice_exchange_is_atomic () =
  let hash = Rp_hashes.Hashfn.fnv1a_string in
  let t = Rp_ht.create ~initial_size:16 ~hash ~equal:String.equal () in
  Rp_ht.insert t "k" (0, 0);
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          match Rp_ht.find t "k" with
          | Some (a, b) -> if b <> a * 7 then Atomic.incr torn
          | None -> Atomic.incr torn
        done)
  in
  let buf = Bytes.of_string "<k>" and fresh = Bytes.create 16 in
  let linked = ref 0 in
  let exchange ~hash buf off len v =
    let stripe = Rp_ht.enter_key t ~hash in
    let r = Rp_ht.exchange_slice_locked t ~hash buf off len v in
    Rp_ht.leave_key t stripe;
    r
  in
  for i = 1 to 50_000 do
    (match exchange ~hash:(hash "k") buf 1 1 (i, i * 7) with
    | Rp_ht.Replaced (a, b) when a = i - 1 && b = a * 7 -> ()
    | Rp_ht.Replaced _ | Rp_ht.Linked _ -> Atomic.incr torn);
    if i mod 8 = 0 then begin
      let key = Printf.sprintf "key:%d" i in
      Bytes.blit_string key 0 fresh 0 (String.length key);
      match exchange ~hash:(hash key) fresh 0 (String.length key) (i, i * 7) with
      | Rp_ht.Linked k when k = key -> incr linked
      | Rp_ht.Linked _ | Rp_ht.Replaced _ -> Atomic.incr torn
    end
  done;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check int) "no torn values" 0 (Atomic.get torn);
  Alcotest.(check int) "every fresh key linked" (50_000 / 8) !linked;
  Alcotest.(check bool) "the table grew" true (Rp_ht.size t > 16);
  match Rp_ht.validate t with Ok () -> () | Error msg -> Alcotest.failf "invariant: %s" msg

(* Cross-stripe vs per-stripe: a shrinker repeatedly takes every stripe
   (ascending order) while writers insert into disjoint key ranges on
   whatever stripes those hash to; no binding may be lost and the table
   must be precise afterwards. *)
let test_shrink_vs_striped_inserts () =
  let t =
    Rp_ht.create ~initial_size:512 ~min_size:8 ~auto_resize:false
      ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  Alcotest.(check bool) "write path is striped" true (Rp_ht.stripe_count t >= 2);
  let per_writer = 1000 in
  let writers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to per_writer - 1 do
              let k = (w * 1_000_000) + i in
              Rp_ht.insert t k k
            done))
  in
  for _ = 1 to 8 do
    Rp_ht.resize t 8;
    Rp_ht.resize t 1024
  done;
  List.iter Domain.join writers;
  Rcu.barrier (Rp_ht.rcu t);
  (match Rp_ht.validate t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "post-shrink invariant: %s" msg);
  for w = 0 to 3 do
    for i = 0 to per_writer - 1 do
      let k = (w * 1_000_000) + i in
      if Rp_ht.find t k <> Some k then
        Alcotest.failf "writer %d key %d lost across concurrent shrinks" w i
    done
  done

(* Store-level cross-stripe race: the clock sweep (single-flighted, one
   stripe per victim) runs against writers whose SETs keep auto-expanding
   the table — so sweeps interleave with lazy bucket splits on the same
   stripes. The store must stay serviceable and land under budget. *)
let test_eviction_races_lazy_splits () =
  let store =
    Memcached.Store.create ~backend:Memcached.Store.Rp
      ~max_bytes:(96 * 1024) ~initial_size:8 ()
  in
  let data = String.make 64 'v' in
  let stop = Atomic.make false in
  let writers =
    List.init 3 (fun w ->
        Domain.spawn (fun () ->
            let n = ref 0 and stored = ref 0 in
            while not (Atomic.get stop) do
              let key = Printf.sprintf "ev%d:%d" w !n in
              (match
                 Memcached.Store.set store ~key ~flags:0 ~exptime:0 ~data
               with
              | Memcached.Store.Stored -> incr stored
              | _ -> ());
              incr n
            done;
            !stored))
  in
  let evictor =
    Domain.spawn (fun () ->
        let sweeps = ref 0 in
        while not (Atomic.get stop) do
          ignore (Memcached.Store.evict_to_budget store);
          incr sweeps
        done;
        !sweeps)
  in
  Unix.sleepf duration;
  Atomic.set stop true;
  let stored = List.fold_left (fun a d -> a + Domain.join d) 0 writers in
  let sweeps = Domain.join evictor in
  Alcotest.(check bool) "writers stored" true (stored > 0);
  Alcotest.(check bool) "evictor swept" true (sweeps > 0);
  ignore (Memcached.Store.evict_to_budget store);
  Alcotest.(check bool) "under budget" true
    (Memcached.Store.bytes store <= Memcached.Store.max_bytes store);
  (match Memcached.Store.set store ~key:"post" ~flags:0 ~exptime:0 ~data with
  | Memcached.Store.Stored -> ()
  | _ -> Alcotest.fail "post-storm SET failed");
  match Memcached.Store.get store "post" with
  | Some _ -> ()
  | None -> Alcotest.fail "post-storm GET missed"

(* Store-level concurrency: GETs across domains while SETs and deletes run;
   hits must return intact values. *)
let store_torture backend () =
  let store =
    Memcached.Store.create ~backend ~initial_size:256 ~auto_resize:true ()
  in
  let keyspace = 512 in
  for i = 0 to keyspace - 1 do
    ignore
      (Memcached.Store.set store
         ~key:(Rp_workload.Keygen.string_key i)
         ~flags:i ~exptime:0
         ~data:(Printf.sprintf "value-%d" i))
  done;
  let stop = Atomic.make false in
  let corrupt = Atomic.make 0 in
  let reader seed =
    Domain.spawn (fun () ->
        let prng = Rp_workload.Prng.create ~seed in
        while not (Atomic.get stop) do
          let i = Rp_workload.Prng.below prng keyspace in
          match Memcached.Store.get store (Rp_workload.Keygen.string_key i) with
          | Some v ->
              (* Flags and data travel together; a mismatch is a torn read. *)
              let expected_prefix = "value-" in
              if
                String.length v.vdata < String.length expected_prefix
                || String.sub v.vdata 0 (String.length expected_prefix)
                   <> expected_prefix
              then Atomic.incr corrupt
          | None -> () (* deleted by the churn writer: legitimate miss *)
        done)
  in
  let writer =
    Domain.spawn (fun () ->
        let prng = Rp_workload.Prng.create ~seed:31 in
        while not (Atomic.get stop) do
          let i = Rp_workload.Prng.below prng keyspace in
          let key = Rp_workload.Keygen.string_key i in
          if Rp_workload.Prng.below prng 10 = 0 then
            ignore (Memcached.Store.delete store key)
          else
            ignore
              (Memcached.Store.set store ~key ~flags:i ~exptime:0
                 ~data:(Printf.sprintf "value-%d!" i))
        done)
  in
  let readers = List.init 2 (fun i -> reader (50 + i)) in
  Unix.sleepf duration;
  Atomic.set stop true;
  List.iter Domain.join readers;
  Domain.join writer;
  Alcotest.(check int) "no corrupt values" 0 (Atomic.get corrupt)

(* Chunk reuse only after a grace period (DESIGN §10, "Items in their
   chunks"). A reader copies items out of the store while a writer
   overwrites and deletes their keys, so item chunks are retired and
   reused all the time. Version [v] of a value carries [v] as its flags
   and [v]'s tag in every byte, and its CAS follows from [v]: the
   writer is the only one minting versions, one per SET, from the base
   key's. So a copy torn by a chunk reused under it shows two tags, and
   a header torn from its value — flags or CAS of another version —
   shows a tag or CAS that does not match its flags. Yields at the
   limbo hand-off ([rcu.call_rcu.enqueue]) and at the start of each
   grace period ([rcu.synchronize.pre]) shuffle where reuse lands
   against the reader's sections. The slab's page count shows the
   chunks were reused: the values written would fill at least twice
   the pages allocated (the run lasts until they would, within a
   bound). *)
let chunk_reuse ~rcu_mode () =
  let module S = Memcached.Store in
  let store = S.create ~backend:S.Rp ~rcu_mode ~initial_size:64 () in
  let keys = List.init 8 (Printf.sprintf "chunk:%d") in
  let len = 64 * 1024 in
  let tag v = Char.chr (Char.code 'a' + (v mod 26)) in
  let value v = String.make len (tag v) in
  ignore (S.set store ~key:"chunk:base" ~flags:0 ~exptime:0 ~data:"");
  let base =
    match S.get_many store ~with_cas:true [ "chunk:base" ] with
    | [ { vcas = Some c; _ } ] -> c
    | _ -> Alcotest.fail "no base CAS"
  in
  (* this domain only waits from here on: under QSBR it must not hold up
     the writer's grace periods *)
  S.reader_offline store;
  (* every seventh version is a DELETE, which mints none *)
  let cas_of v = base + v - (v / 7) in
  let stop = Atomic.make false in
  let torn = Atomic.make 0 and hits = Atomic.make 0 in
  Rp_fault.arm ~seed:7 "rcu.call_rcu.enqueue" ~trigger:(Rp_fault.Probability 0.3)
    ~action:Rp_fault.Yield;
  Rp_fault.arm ~seed:11 "rcu.synchronize.pre" ~trigger:(Rp_fault.Probability 0.3)
    ~action:Rp_fault.Yield;
  Fun.protect ~finally:Rp_fault.reset @@ fun () ->
  let progress = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        let v = ref 0 in
        while not (Atomic.get stop) do
          List.iter
            (fun key ->
              incr v;
              if !v mod 7 = 0 then ignore (S.delete store key)
              else ignore (S.set store ~key ~flags:!v ~exptime:0 ~data:(value !v)))
            keys;
          Atomic.set progress !v
        done;
        S.reader_offline store;
        !v)
  in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          List.iter
            (fun (r : Memcached.Protocol.value) ->
              Atomic.incr hits;
              let v = r.vflags in
              if
                String.length r.vdata <> len
                || (not (String.for_all (Char.equal (tag v)) r.vdata))
                || r.vcas <> Some (cas_of v)
              then Atomic.incr torn)
            (S.get_many store ~with_cas:true keys)
        done;
        S.reader_offline store)
  in
  (* at least two durations, then until the values written would fill
     twice the pages (the writer's pace varies with the machine's load),
     for at most twenty *)
  let pages () =
    let p = float_of_string (List.assoc "slab_pages" (S.stats store)) in
    S.reader_offline store;
    p
  in
  let refilled () =
    float_of_int (Atomic.get progress) *. float_of_int len > 2. *. pages () *. 1048576.
  in
  let started = Unix.gettimeofday () in
  Unix.sleepf (2. *. duration);
  while (not (refilled ())) && Unix.gettimeofday () -. started < 20. *. duration do
    Unix.sleepf 0.01
  done;
  Atomic.set stop true;
  Domain.join reader;
  let written = Domain.join writer in
  let pages = pages () in
  Alcotest.(check int) "no torn copy" 0 (Atomic.get torn);
  Alcotest.(check bool) "the reader hit" true (Atomic.get hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "chunks reused: %d values in %.0f pages" written pages)
    true
    (float_of_int written *. float_of_int len > 2. *. pages *. 1048576.)

(* Systhreads of one domain share its [get_many] staging. Two of them
   read disjoint keys whose values differ, through [get_many] and [get].
   The runtime switches between them at allocation points, most of
   which are in building [get_many]'s replies, so one is often switched
   out in the middle of that while the other serves its own keys. Every
   reply must be its own key's value. *)
let shared_staging backend () =
  let module S = Memcached.Store in
  let store = S.create ~backend ~initial_size:256 () in
  let n = 64 in
  let keys = Array.init 2 (fun t -> Array.init n (Printf.sprintf "staging:%d:%d" t)) in
  let values =
    Array.init 2 (fun t ->
        Array.init n (fun i -> String.make (1000 + i) (Char.chr (Char.code 'a' + t))))
  in
  for t = 0 to 1 do
    for i = 0 to n - 1 do
      ignore (S.set store ~key:keys.(t).(i) ~flags:i ~exptime:0 ~data:values.(t).(i))
    done
  done;
  let stop = Atomic.make false in
  let wrong = Atomic.make 0 and replies = Atomic.make 0 in
  let check t i (r : Memcached.Protocol.value) =
    Atomic.incr replies;
    if r.vkey != keys.(t).(i) || r.vflags <> i || not (String.equal r.vdata values.(t).(i)) then
      Atomic.incr wrong
  in
  let reader t =
    let key_list = Array.to_list keys.(t) in
    let i = ref 0 in
    while not (Atomic.get stop) do
      (match S.get_many store key_list with
      | replies when List.length replies = n -> List.iteri (check t) replies
      | _ -> Atomic.incr wrong);
      (match S.get store keys.(t).(!i) with
      | Some r -> check t !i { r with vkey = keys.(t).(!i) }
      | None -> Atomic.incr wrong);
      i := (!i + 1) mod n
    done
  in
  let threads = List.init 2 (Thread.create reader) in
  Unix.sleepf (2. *. duration);
  Atomic.set stop true;
  List.iter Thread.join threads;
  Alcotest.(check int) "no reply of another key" 0 (Atomic.get wrong);
  Alcotest.(check bool) "replies read" true (Atomic.get replies > 0)

let () =
  Alcotest.run "concurrent"
    [
      ( "table torture (fixed size)",
        [
          Alcotest.test_case "rp" `Slow (torture rp_table ~with_resize:false);
          Alcotest.test_case "rp-qsbr" `Slow (torture qsbr_table ~with_resize:false);
          Alcotest.test_case "ddds" `Slow (torture ddds_table ~with_resize:false);
          Alcotest.test_case "rwlock" `Slow (torture rwlock_table ~with_resize:false);
          Alcotest.test_case "lock" `Slow (torture lock_table ~with_resize:false);
          Alcotest.test_case "xu" `Slow (torture xu_table ~with_resize:false);
        ] );
      ( "table torture (continuous resize)",
        [
          Alcotest.test_case "rp" `Slow (torture rp_table ~with_resize:true);
          Alcotest.test_case "rp-qsbr" `Slow (torture qsbr_table ~with_resize:true);
          Alcotest.test_case "ddds" `Slow (torture ddds_table ~with_resize:true);
          Alcotest.test_case "xu" `Slow (torture xu_table ~with_resize:true);
        ] );
      ( "rp specifics",
        [
          Alcotest.test_case "invariants after torture" `Slow
            test_rp_invariants_after_torture;
          Alcotest.test_case "move never leaves neither key" `Slow
            test_move_never_neither;
          Alcotest.test_case "replace is atomic" `Slow test_replace_is_atomic;
          Alcotest.test_case "slice exchange is atomic" `Slow test_slice_exchange_is_atomic;
          Alcotest.test_case "shrink vs striped inserts" `Slow
            test_shrink_vs_striped_inserts;
          Alcotest.test_case "batch lookups vs resizer" `Slow (batch_torture ~qsbr:false);
          Alcotest.test_case "batch lookups vs resizer, qsbr" `Slow
            (batch_torture ~qsbr:true);
        ] );
      ( "memcached store",
        [
          Alcotest.test_case "rp backend" `Slow (store_torture Memcached.Store.Rp);
          Alcotest.test_case "lock backend" `Slow
            (store_torture Memcached.Store.Lock);
          Alcotest.test_case "eviction races lazy splits" `Slow
            test_eviction_races_lazy_splits;
          Alcotest.test_case "chunk reuse after a grace period, memb" `Slow
            (chunk_reuse ~rcu_mode:Memcached.Store.Memb);
          Alcotest.test_case "chunk reuse after a grace period, qsbr" `Slow
            (chunk_reuse ~rcu_mode:Memcached.Store.Qsbr);
          Alcotest.test_case "rp, shared staging" `Slow
            (shared_staging Memcached.Store.Rp);
          Alcotest.test_case "lock, shared staging" `Slow
            (shared_staging Memcached.Store.Lock);
        ] );
    ]
