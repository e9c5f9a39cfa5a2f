(* The tiered-storage plane, bottom-up: the cold segment store (append /
   read / rotation / live-byte accounting / failpoints / recovery), the
   store's demote-promote cycle with slab charge/refund round-trips, the
   iter read-through, compaction via the Tier glue, and the startup
   directory validation. *)

open Memcached

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rp-tier-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    dir

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let open_cold ?segment_bytes ~dir ~max_bytes () =
  match Rp_tier.Cold_store.open_ ?segment_bytes ~dir ~max_bytes () with
  | Ok c -> c
  | Error e -> Alcotest.failf "cold open: %s" e

let append_ok cold key data =
  match Rp_tier.Cold_store.append cold ~key ~data with
  | Ok l -> l
  | Error `Full -> Alcotest.failf "append %s: full" key
  | Error (`Failed e) -> Alcotest.failf "append %s: %s" key e

(* --- cold segment store --- *)

let test_cold_roundtrip () =
  with_dir @@ fun dir ->
  let cold = open_cold ~dir ~max_bytes:(1 lsl 20) () in
  let locs =
    List.init 5 (fun i ->
        let key = Printf.sprintf "k%d" i in
        (key, String.make (50 + i) 'v', append_ok cold key (String.make (50 + i) 'v')))
  in
  List.iter
    (fun (key, data, loc) ->
      match Rp_tier.Cold_store.read cold loc with
      | Ok (k, d) ->
          Alcotest.(check string) "key" key k;
          Alcotest.(check string) "data" data d
      | Error _ -> Alcotest.failf "read %s failed" key)
    locs;
  Alcotest.(check bool) "bytes accounted" true (Rp_tier.Cold_store.total_bytes cold > 0);
  Alcotest.(check int) "all live"
    (Rp_tier.Cold_store.total_bytes cold)
    (Rp_tier.Cold_store.live_bytes cold);
  Rp_tier.Cold_store.close cold

let test_cold_rotation_and_drop () =
  with_dir @@ fun dir ->
  (* Tiny segments: a handful of ~100-byte records spans several files. *)
  let cold = open_cold ~segment_bytes:256 ~dir ~max_bytes:(1 lsl 20) () in
  let locs =
    List.init 12 (fun i ->
        append_ok cold (Printf.sprintf "k%d" i) (String.make 100 'x'))
  in
  let segs = Rp_tier.Cold_store.segment_count cold in
  Alcotest.(check bool) "rotated" true (segs > 1);
  (* Kill every record of the first (sealed) segment: the file must be
     unlinked on the spot and its locations come back Gone. *)
  let seg0 = (List.hd locs).Rp_tier.segment in
  let in_seg0, rest =
    List.partition (fun l -> l.Rp_tier.segment = seg0) locs
  in
  List.iter (fun l -> Rp_tier.Cold_store.mark_dead cold l) in_seg0;
  Alcotest.(check int) "segment dropped" (segs - 1)
    (Rp_tier.Cold_store.segment_count cold);
  (match Rp_tier.Cold_store.read cold (List.hd in_seg0) with
  | Error Rp_tier.Gone -> ()
  | Ok _ | Error Rp_tier.Torn -> Alcotest.fail "dropped segment still readable");
  (* Survivors unaffected. *)
  (match Rp_tier.Cold_store.read cold (List.hd rest) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "live segment lost");
  Rp_tier.Cold_store.close cold

let test_cold_full () =
  with_dir @@ fun dir ->
  let cold = open_cold ~dir ~max_bytes:512 () in
  let rec fill i =
    if i > 64 then Alcotest.fail "budget never enforced"
    else
      match
        Rp_tier.Cold_store.append cold ~key:(Printf.sprintf "k%d" i)
          ~data:(String.make 100 'x')
      with
      | Ok _ -> fill (i + 1)
      | Error `Full -> ()
      | Error (`Failed e) -> Alcotest.failf "append failed: %s" e
  in
  fill 0;
  Alcotest.(check bool) "stayed under budget" true
    (Rp_tier.Cold_store.total_bytes cold <= 512 + 256);
  Rp_tier.Cold_store.close cold

let test_cold_failpoints () =
  with_dir @@ fun dir ->
  let cold = open_cold ~dir ~max_bytes:(1 lsl 20) () in
  Rp_fault.arm Rp_tier.append_site ~trigger:Rp_fault.Always ~action:Rp_fault.Raise;
  (match Rp_tier.Cold_store.append cold ~key:"k" ~data:"v" with
  | Error (`Failed _) -> ()
  | Ok _ -> Alcotest.fail "armed append succeeded"
  | Error `Full -> Alcotest.fail "armed append reported full");
  Rp_fault.disarm Rp_tier.append_site;
  (* The head was sealed on failure; the next append lands cleanly. *)
  let loc = append_ok cold "k" "v" in
  Rp_fault.arm Rp_tier.read_torn_site ~trigger:Rp_fault.Always
    ~action:Rp_fault.Raise;
  (match Rp_tier.Cold_store.read cold loc with
  | Error Rp_tier.Torn -> ()
  | Ok _ | Error Rp_tier.Gone -> Alcotest.fail "armed read not torn");
  Rp_fault.disarm Rp_tier.read_torn_site;
  (match Rp_tier.Cold_store.read cold loc with
  | Ok ("k", "v") -> ()
  | _ -> Alcotest.fail "read after disarm");
  Rp_tier.Cold_store.close cold

let test_cold_recovery () =
  with_dir @@ fun dir ->
  let cold = open_cold ~dir ~max_bytes:(1 lsl 20) () in
  let locs =
    List.init 4 (fun i ->
        (Printf.sprintf "k%d" i, append_ok cold (Printf.sprintf "k%d" i) "value"))
  in
  Rp_tier.Cold_store.close cold;
  (* Reopen: pre-recovery the old segments are readable but unknown. *)
  let cold = open_cold ~dir ~max_bytes:(1 lsl 20) () in
  (match Rp_tier.Cold_store.read cold (List.assoc "k1" locs) with
  | Ok ("k1", "value") -> ()
  | _ -> Alcotest.fail "pre-recovery read");
  (* Half the records are still referenced: live map rebuilt, nothing
     dropped. *)
  let live = [ "k0"; "k2" ] in
  let dropped =
    Rp_tier.Cold_store.finish_recovery cold ~is_live:(fun key _ ->
        List.mem key live)
  in
  Alcotest.(check int) "half-live segment kept" 0 dropped;
  Alcotest.(check bool) "live < total" true
    (Rp_tier.Cold_store.live_bytes cold < Rp_tier.Cold_store.total_bytes cold);
  Rp_tier.Cold_store.close cold;
  (* Reopen again with nothing referenced: the segment is dropped. *)
  let cold = open_cold ~dir ~max_bytes:(1 lsl 20) () in
  let dropped =
    Rp_tier.Cold_store.finish_recovery cold ~is_live:(fun _ _ -> false)
  in
  Alcotest.(check bool) "dead segment dropped" true (dropped >= 1);
  (match Rp_tier.Cold_store.read cold (List.assoc "k1" locs) with
  | Error Rp_tier.Gone -> ()
  | _ -> Alcotest.fail "dropped segment still readable");
  Rp_tier.Cold_store.close cold

let test_cold_compact_candidate () =
  with_dir @@ fun dir ->
  let cold = open_cold ~segment_bytes:256 ~dir ~max_bytes:(1 lsl 20) () in
  let locs =
    List.init 12 (fun i ->
        append_ok cold (Printf.sprintf "k%d" i) (String.make 100 'x'))
  in
  Alcotest.(check (option int)) "all live: no candidate" None
    (Rp_tier.Cold_store.compact_candidate cold ~min_dead_ratio:0.5);
  (* Kill most-but-not-all of the oldest segment so it cannot auto-drop,
     then it must become the candidate. The head never qualifies. *)
  let seg0 = (List.hd locs).Rp_tier.segment in
  let in_seg0 = List.filter (fun l -> l.Rp_tier.segment = seg0) locs in
  List.iteri
    (fun i l -> if i > 0 then Rp_tier.Cold_store.mark_dead cold l)
    in_seg0;
  (match Rp_tier.Cold_store.compact_candidate cold ~min_dead_ratio:0.4 with
  | Some g -> Alcotest.(check int) "oldest mostly-dead segment" seg0 g
  | None -> Alcotest.fail "no candidate");
  Alcotest.(check (option int)) "ratio above its dead share" None
    (Rp_tier.Cold_store.compact_candidate cold ~min_dead_ratio:0.99);
  Rp_tier.Cold_store.close cold

(* --- store demote / promote --- *)

(* Wire a raw Cold_store under a store, exactly as the Tier glue does but
   without the compactor domain, so tests control every step. *)
let attach_cold store cold =
  Store.set_tier store
    (Some
       {
         Store.th_demote =
           (fun key data ->
             match Rp_tier.Cold_store.append cold ~key ~data with
             | Ok l -> Some (l.Rp_tier.segment, l.Rp_tier.offset, l.Rp_tier.len)
             | Error _ -> None);
         th_read =
           (fun (segment, offset, len) ->
             match Rp_tier.Cold_store.read cold { segment; offset; len } with
             | Ok kv -> Ok kv
             | Error Rp_tier.Gone -> Error Store.Tier_gone
             | Error Rp_tier.Torn -> Error Store.Tier_torn);
         th_mark_dead =
           (fun (segment, offset, len) ->
             Rp_tier.Cold_store.mark_dead cold { segment; offset; len });
         th_admit = (fun () -> true);
       })

let make_tiered ?(max_bytes = 16 * 1024) dir =
  let store =
    Store.create ~backend:Store.Rp ~max_bytes ~initial_size:64 ()
  in
  let cold = open_cold ~dir ~max_bytes:(1 lsl 22) () in
  attach_cold store cold;
  (store, cold)

let key i = Printf.sprintf "key%03d" i
let payload i = Printf.sprintf "%03d:%s" i (String.make 1000 'v')

let fill store n =
  for i = 0 to n - 1 do
    match
      Store.set store ~key:(key i) ~flags:i ~exptime:0 ~data:(payload i)
    with
    | Store.Stored -> ()
    | _ -> Alcotest.failf "set %d" i
  done

let cold_keys store n =
  List.filter
    (fun i -> Store.tier_location store (key i) <> None)
    (List.init n Fun.id)

let test_store_demote_promote () =
  with_dir @@ fun dir ->
  let store, _cold = make_tiered dir in
  let n = 48 in
  fill store n;
  (* 48 KB of values against a 16 KB budget: the overflow demoted, not
     dropped — keys never leave the table. *)
  Alcotest.(check int) "every key still in the table" n (Store.items store);
  Alcotest.(check bool) "demotions happened" true (Store.tier_demotions store > 0);
  Alcotest.(check bool) "cold markers live" true (cold_keys store n <> []);
  (* Every key readable; flags ride the marker through the round-trip. *)
  for i = 0 to n - 1 do
    match Store.get store (key i) with
    | Some v ->
        Alcotest.(check string) "data" (payload i) v.Protocol.vdata;
        Alcotest.(check int) "flags" i v.Protocol.vflags
    | None -> Alcotest.failf "hard miss on %s" (key i)
  done;
  Alcotest.(check bool) "promotions happened" true
    (Store.tier_promotions store > 0)

let test_store_cold_overwrite_delete_flush () =
  with_dir @@ fun dir ->
  let store, cold = make_tiered dir in
  let n = 48 in
  fill store n;
  let pick l = match l with [] -> Alcotest.fail "nothing cold" | i :: _ -> i in
  (* Overwrite a cold key: the marker dies, the new value is hot. *)
  let a = pick (cold_keys store n) in
  let live0 = Rp_tier.Cold_store.live_bytes cold in
  (match Store.set store ~key:(key a) ~flags:0 ~exptime:0 ~data:"fresh" with
  | Store.Stored -> ()
  | _ -> Alcotest.fail "overwrite");
  Alcotest.(check (option (triple int int int))) "marker gone" None
    (Store.tier_location store (key a));
  Alcotest.(check bool) "overwrite refunded the frame" true
    (Rp_tier.Cold_store.live_bytes cold < live0);
  (* Delete a cold key: acked, gone, and its frame dead. *)
  let b = pick (cold_keys store n) in
  let live1 = Rp_tier.Cold_store.live_bytes cold in
  Alcotest.(check bool) "delete acked" true (Store.delete store (key b));
  Alcotest.(check (option string)) "deleted" None
    (Option.map (fun (v : Protocol.value) -> v.vdata) (Store.get store (key b)));
  Alcotest.(check bool) "delete refunded the frame" true
    (Rp_tier.Cold_store.live_bytes cold < live1);
  (* Flush: every frame dead. *)
  Store.flush_all store;
  Alcotest.(check int) "flushed" 0 (Store.items store);
  Alcotest.(check int) "no live cold bytes" 0 (Rp_tier.Cold_store.live_bytes cold)

(* The read-modify-write commands must operate on a demoted key's real
   value, not its marker's "": touch keeps the value, append/prepend
   concatenate against it, incr parses it. *)
let test_cold_mutations () =
  with_dir @@ fun dir ->
  let store, _cold = make_tiered dir in
  let n = 48 in
  fill store n;
  let pick l = match l with [] -> Alcotest.fail "nothing cold" | i :: _ -> i in
  (* touch: only the expiry changes; the value survives the round-trip. *)
  let a = pick (cold_keys store n) in
  Alcotest.(check bool) "touch acked" true
    (Store.touch store ~key:(key a) ~exptime:1000);
  (match Store.get store (key a) with
  | Some v ->
      Alcotest.(check string) "touch kept the cold value" (payload a)
        v.Protocol.vdata
  | None -> Alcotest.failf "touch lost %s" (key a));
  (* append: the suffix lands on the cold value, not on "". *)
  let b = pick (cold_keys store n) in
  (match Store.append store ~key:(key b) ~data:"+tail" with
  | Store.Stored -> ()
  | _ -> Alcotest.fail "append on cold key not stored");
  (match Store.get store (key b) with
  | Some v ->
      Alcotest.(check string) "append concatenated the cold value"
        (payload b ^ "+tail") v.Protocol.vdata
  | None -> Alcotest.failf "append lost %s" (key b));
  (* prepend, same shape. *)
  let c = pick (cold_keys store n) in
  (match Store.prepend store ~key:(key c) ~data:"head+" with
  | Store.Stored -> ()
  | _ -> Alcotest.fail "prepend on cold key not stored");
  (match Store.get store (key c) with
  | Some v ->
      Alcotest.(check string) "prepend concatenated the cold value"
        ("head+" ^ payload c) v.Protocol.vdata
  | None -> Alcotest.failf "prepend lost %s" (key c))

(* incr/decr on a demoted numeric key: values are numeric with blank
   padding (big enough to force demotion; [String.trim] strips it). *)
let test_cold_counter () =
  with_dir @@ fun dir ->
  let store, _cold = make_tiered dir in
  let n = 48 in
  for i = 0 to n - 1 do
    match
      Store.set store ~key:(key i) ~flags:0 ~exptime:0
        ~data:(string_of_int (100 + i) ^ String.make 1000 ' ')
    with
    | Store.Stored -> ()
    | _ -> Alcotest.failf "set %d" i
  done;
  let c =
    match cold_keys store n with [] -> Alcotest.fail "nothing cold" | i :: _ -> i
  in
  (match Store.incr store (key c) 1 with
  | Store.Cvalue v -> Alcotest.(check int) "incr on cold value" (101 + c) v
  | Store.Cnon_numeric -> Alcotest.fail "cold counter read as non-numeric"
  | Store.Cnotfound -> Alcotest.fail "cold counter not found");
  match Store.get store (key c) with
  | Some v ->
      Alcotest.(check string) "stored the produced value"
        (string_of_int (101 + c)) v.Protocol.vdata
  | None -> Alcotest.fail "counter lost after incr"

(* Slab accounting across the demote / promote cycle: [bytes] charges
   hot-resident values only, and a promote / delete pair round-trips the
   charge exactly. *)
let test_slab_accounting () =
  with_dir @@ fun dir ->
  let budget = 32 * 1024 in
  let store, _cold = make_tiered ~max_bytes:budget dir in
  let n = 48 in
  fill store n;
  ignore (Store.evict_to_budget store);
  let full_set = n * 1000 in
  Alcotest.(check bool) "bytes under budget after the wave" true
    (Store.bytes store <= budget);
  Alcotest.(check bool) "markers not charged as values" true
    (Store.bytes store < full_set);
  Alcotest.(check bool) "fragmentation sane after the wave" true
    (* allocated/requested - 1: the marker-heavy population must not
       blow up chunk overhead. *)
    (let f = Store.fragmentation store in
     f >= 0.0 && f < 1.0);
  (* Open headroom so a promote cannot trigger a counter-demotion, then
     round-trip one key: promote charges its chunk, delete refunds it. *)
  let hot =
    List.filter
      (fun i -> Store.tier_location store (key i) = None)
      (List.init n Fun.id)
  in
  List.iteri (fun j i -> if j < 12 then ignore (Store.delete store (key i))) hot;
  let c =
    match cold_keys store n with [] -> Alcotest.fail "nothing cold" | i :: _ -> i
  in
  let before = Store.bytes store in
  (match Store.get store (key c) with
  | Some v -> Alcotest.(check string) "promoted data" (payload c) v.Protocol.vdata
  | None -> Alcotest.fail "cold key unreadable");
  Alcotest.(check (option (triple int int int))) "now hot" None
    (Store.tier_location store (key c));
  let after = Store.bytes store in
  Alcotest.(check bool) "promote charged the chunk" true (after > before);
  Alcotest.(check bool) "charge is one chunk, not a copy storm" true
    (after - before < 2048);
  ignore (Store.delete store (key c));
  (* The delete refunds the promoted chunk AND the marker's small chunk
     that was part of [before]: bytes lands just under the start point. *)
  let diff = before - Store.bytes store in
  Alcotest.(check bool) "delete refunded chunk and marker" true
    (diff > 0 && diff < 256)

let test_get_many_mixed () =
  with_dir @@ fun dir ->
  let store, _cold = make_tiered dir in
  let n = 48 in
  fill store n;
  let c =
    match cold_keys store n with [] -> Alcotest.fail "nothing cold" | i :: _ -> i
  in
  let h =
    match
      List.filter
        (fun i -> Store.tier_location store (key i) = None)
        (List.init n Fun.id)
    with
    | [] -> Alcotest.fail "nothing hot"
    | i :: _ -> i
  in
  let vs =
    Store.get_many store ~with_cas:true [ key h; "absent"; key c ]
  in
  (match vs with
  | [ vh; vc ] ->
      Alcotest.(check string) "hot first, in request order" (key h) vh.Protocol.vkey;
      Alcotest.(check string) "hot data" (payload h) vh.Protocol.vdata;
      Alcotest.(check string) "cold resolved" (key c) vc.Protocol.vkey;
      Alcotest.(check string) "cold data" (payload c) vc.Protocol.vdata;
      Alcotest.(check bool) "cas present" true (vc.Protocol.vcas <> None)
  | vs -> Alcotest.failf "expected 2 values, got %d" (List.length vs));
  Alcotest.(check (option (triple int int int))) "multiget promoted it" None
    (Store.tier_location store (key c))

let test_iter_read_through () =
  with_dir @@ fun dir ->
  let store, _cold = make_tiered dir in
  let n = 48 in
  fill store n;
  Alcotest.(check bool) "some keys are cold" true (cold_keys store n <> []);
  let seen = Hashtbl.create 64 in
  ignore
    (Store.iter_items store ~f:(fun k ~flags:_ ~exptime:_ ~cas:_ data ->
         Hashtbl.replace seen k data));
  (* The walk (what snapshots consume) must surface real values for cold
     items, not markers. *)
  for i = 0 to n - 1 do
    match Hashtbl.find_opt seen (key i) with
    | Some data -> Alcotest.(check string) "iter data" (payload i) data
    | None -> Alcotest.failf "iter missed %s" (key i)
  done

(* Eviction is not logged, so a key the sweep dropped (plain eviction is
   the tier's fallback when a demotion fails) is absent from memory yet
   still durable. An acked DELETE of it answers NOT_FOUND and must still
   log its tombstone, or a warm restart resurrects the key (DESIGN
   §16.2). The restart's budget is large, so no post-recovery sweep can
   hide a resurrection. *)
let test_delete_of_evicted_key_stays_dead () =
  with_dir @@ fun dir ->
  let store = Store.create ~backend:Store.Rp ~max_bytes:(8 * 1024) ~initial_size:64 () in
  let p = Persist.attach ~dir store in
  let in_memory k =
    let found = ref false in
    ignore
      (Store.iter_items store ~f:(fun key ~flags:_ ~exptime:_ ~cas:_ _ ->
           if key = k then found := true));
    !found
  in
  ignore (Store.set store ~key:"victim" ~flags:0 ~exptime:0 ~data:(payload 0));
  let rec evict i =
    if in_memory "victim" then
      if i < 1000 then begin
        ignore (Store.set store ~key:(key i) ~flags:0 ~exptime:0 ~data:(payload i));
        evict (i + 1)
      end
      else Alcotest.fail "the victim was never evicted"
  in
  evict 1;
  Alcotest.(check bool) "the delete of an evicted key misses" false (Store.delete store "victim");
  Persist.stop p;
  let store2 = Store.create ~backend:Store.Rp ~max_bytes:(1 lsl 30) ~initial_size:64 () in
  let p2 = Persist.attach ~dir store2 in
  let resurrected = Store.get store2 "victim" in
  let fillers = Store.items store2 in
  Persist.stop p2;
  Alcotest.(check bool) "the fillers were recovered" true (fillers > 0);
  Alcotest.(check (option string)) "stays dead after a warm restart" None
    (Option.map (fun (v : Protocol.value) -> v.vdata) resurrected)

(* --- the Tier glue: compaction, instruments, stats --- *)

let test_tier_compaction () =
  with_dir @@ fun dir ->
  let tier_dir = Filename.concat dir "tier" in
  let store =
    Store.create ~backend:Store.Rp ~max_bytes:(16 * 1024) ~initial_size:64 ()
  in
  let tier =
    match
      Tier.attach ~min_dead_ratio:0.3 ~compact_interval:3600.
        ~segment_bytes:4096 ~dir:tier_dir ~max_mb:4 store
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "tier attach: %s" e
  in
  Fun.protect ~finally:(fun () -> Tier.stop tier; rm_rf tier_dir)
  @@ fun () ->
  let n = 48 in
  fill store n;
  (* Punch holes: delete two thirds of the demoted keys, leaving sealed
     segments mostly dead but never empty enough to auto-drop. *)
  let cold0 = cold_keys store n in
  List.iteri (fun j i -> if j mod 3 > 0 then ignore (Store.delete store (key i))) cold0;
  let survivors = List.filteri (fun j _ -> j mod 3 = 0) cold0 in
  let compacted = ref false in
  for _ = 1 to 8 do
    if Tier.compact_once tier then compacted := true
  done;
  Alcotest.(check bool) "a segment was compacted" true !compacted;
  Alcotest.(check bool) "compaction counted" true (Tier.compactions tier > 0);
  (* Relocated records still resolve through the fresh markers. *)
  List.iter
    (fun i ->
      match Store.get store (key i) with
      | Some v -> Alcotest.(check string) "survivor data" (payload i) v.Protocol.vdata
      | None -> Alcotest.failf "survivor %s lost by compaction" (key i))
    survivors;
  (* The stats section is live while attached. *)
  let stats = Option.get (Store.stats_section store "tier") in
  Alcotest.(check (option string)) "mode" (Some "demote")
    (List.assoc_opt "tier_mode" stats);
  Alcotest.(check bool) "demotion counter exported" true
    (List.mem_assoc "tier_demotions_total" stats)

(* The guard wiring (DESIGN §16.5): at [emergency] the tier stops
   admitting, so an eviction sweep drops its victims and demotes none;
   once the ladder leaves [emergency], the sweep demotes again. The
   ladder is driven by a pressure source of the test's own, swept by
   hand. *)
let test_emergency_sheds_demotion ~installed () =
  with_dir @@ fun dir ->
  let tier_dir = Filename.concat dir "tier" in
  let store = Store.create ~backend:Store.Rp ~max_bytes:(16 * 1024) ~initial_size:64 () in
  (* [installed]: the server's wiring, whose [mem] source reads the
     store — a hot layer the sweep holds full at the budget must read
     as no pressure while a tier is attached, admitting or not, or the
     ladder never leaves Emergency. *)
  let guard =
    if installed then Guard.install store
    else begin
      let guard = Rp_guard.create () in
      Store.set_guard store (Some guard);
      guard
    end
  in
  let pressure = ref 0.0 in
  Rp_guard.add_source guard ~name:"test" (fun () -> !pressure);
  let tier =
    match Tier.attach ~compact_interval:3600. ~dir:tier_dir ~max_mb:4 store with
    | Ok t -> t
    | Error e -> Alcotest.failf "tier attach: %s" e
  in
  Fun.protect ~finally:(fun () -> Tier.stop tier; rm_rf tier_dir)
  @@ fun () ->
  let set_range lo hi =
    for i = lo to hi - 1 do
      if Store.set store ~key:(key i) ~flags:i ~exptime:0 ~data:(payload i) <> Store.Stored then
        Alcotest.failf "set %d" i
    done
  in
  set_range 0 32;
  let demoted = Store.tier_demotions store in
  Alcotest.(check bool) "healthy: the sweep demotes" true (demoted > 0);
  pressure := 2.0;
  Rp_guard.sweep guard;
  Alcotest.(check string) "emergency" "emergency" (Rp_guard.state_name (Rp_guard.state guard));
  Alcotest.(check bool) "tier paused" true (Tier.paused tier);
  let evicted = Store.evictions store in
  set_range 32 64;
  Alcotest.(check int) "no demotion at emergency" demoted (Store.tier_demotions store);
  Alcotest.(check bool) "the sweep dropped its victims" true (Store.evictions store > evicted);
  Alcotest.(check bool) "within budget" true (Store.bytes store <= Store.max_bytes store);
  let dropped =
    List.filter (fun i -> Store.get store (key i) = None) (List.init 32 (fun j -> 32 + j))
  in
  Alcotest.(check bool) "keys set at emergency were dropped, not demoted" true (dropped <> []);
  pressure := 0.0;
  let rec calm n =
    Rp_guard.sweep guard;
    if Tier.paused tier && n > 0 then calm (n - 1)
  in
  calm 10;
  Alcotest.(check bool) "the ladder left emergency" true
    (Rp_guard.state guard <> Rp_guard.Emergency);
  Alcotest.(check bool) "tier admits again" false (Tier.paused tier);
  set_range 64 96;
  Alcotest.(check bool) "the sweep demotes again" true (Store.tier_demotions store > demoted)

let test_tier_stats_disabled () =
  let store = Store.create ~backend:Store.Rp () in
  Alcotest.(check (option string)) "disabled marker" (Some "0")
    (List.assoc_opt "tier_enabled" (Option.get (Store.stats_section store "tier")))

(* Only the rp backend's CLOCK sweep demotes: a tier under a lock store
   would never receive a value while [stats tier] claimed it enabled. *)
let test_tier_refuses_lock () =
  with_dir @@ fun dir ->
  let store = Store.create ~backend:Store.Lock () in
  (match Tier.attach ~dir ~max_mb:1 store with
  | Ok t ->
      Tier.stop t;
      Alcotest.fail "a cold tier attached to a lock store"
  | Error _ -> ());
  Alcotest.(check (option string)) "stats tier stays off" (Some "0")
    (List.assoc_opt "tier_enabled" (Option.get (Store.stats_section store "tier")))

(* --- startup directory validation --- *)

let test_dircheck () =
  with_dir @@ fun dir ->
  (* Missing nested path: created. *)
  let nested = Filename.concat dir "a" in
  (match Dircheck.validate ~flag:"--tier-dir" nested with
  | Ok () -> ()
  | Error e -> Alcotest.failf "nested create refused: %s" e);
  Alcotest.(check bool) "created" true (Sys.is_directory nested);
  (* Leftover probe files are cleaned up. *)
  Alcotest.(check (array string)) "no droppings" [||] (Sys.readdir nested);
  Unix.rmdir nested;
  (* Path is a regular file: refused, message names the flag. *)
  let file = Filename.concat dir "plain" in
  let oc = open_out file in
  close_out oc;
  (match Dircheck.validate ~flag:"--data-dir" file with
  | Error e ->
      Alcotest.(check bool) "names the flag" true
        (String.length e >= 10 && String.sub e 0 10 = "--data-dir")
  | Ok () -> Alcotest.fail "regular file accepted");
  (* Parent is a regular file: creation fails cleanly. *)
  (match Dircheck.validate ~flag:"--tier-dir" (Filename.concat file "sub") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "file/sub accepted")

let () =
  Alcotest.run "tier"
    [
      ( "cold_store",
        [
          Alcotest.test_case "roundtrip" `Quick test_cold_roundtrip;
          Alcotest.test_case "rotation_and_drop" `Quick test_cold_rotation_and_drop;
          Alcotest.test_case "full" `Quick test_cold_full;
          Alcotest.test_case "failpoints" `Quick test_cold_failpoints;
          Alcotest.test_case "recovery" `Quick test_cold_recovery;
          Alcotest.test_case "compact_candidate" `Quick test_cold_compact_candidate;
        ] );
      ( "store",
        [
          Alcotest.test_case "demote_promote" `Quick test_store_demote_promote;
          Alcotest.test_case "cold_overwrite_delete_flush" `Quick
            test_store_cold_overwrite_delete_flush;
          Alcotest.test_case "cold_mutations" `Quick test_cold_mutations;
          Alcotest.test_case "cold_counter" `Quick test_cold_counter;
          Alcotest.test_case "slab_accounting" `Quick test_slab_accounting;
          Alcotest.test_case "get_many_mixed" `Quick test_get_many_mixed;
          Alcotest.test_case "iter_read_through" `Quick test_iter_read_through;
          Alcotest.test_case "delete of an evicted key stays dead" `Quick
            test_delete_of_evicted_key_stays_dead;
        ] );
      ( "tier",
        [
          Alcotest.test_case "compaction" `Quick test_tier_compaction;
          Alcotest.test_case "emergency sheds demotion" `Quick
            (test_emergency_sheds_demotion ~installed:false);
          Alcotest.test_case "emergency sheds demotion, guard installed" `Quick
            (test_emergency_sheds_demotion ~installed:true);
          Alcotest.test_case "stats_disabled" `Quick test_tier_stats_disabled;
          Alcotest.test_case "refuses_lock_backend" `Quick test_tier_refuses_lock;
        ] );
      ( "dircheck", [ Alcotest.test_case "validate" `Quick test_dircheck ] );
    ]
