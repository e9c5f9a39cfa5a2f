(* The persistence plane, bottom-up: CRC framing, record codec, atomic
   snapshots, op-log replay with torn-tail truncation, and the manager's
   full attach -> mutate -> snapshot -> crash -> warm-restart cycle. *)

open Rp_persist

(* --- scratch directories (flat; every test gets a fresh one) --- *)

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
        (Printf.sprintf "rp-persist-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    dir

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let append_file path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

(* --- crc32 --- *)

let test_crc32_vectors () =
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "fox" 0x414FA339
    (Crc32.string "The quick brown fox jumps over the lazy dog")

let test_crc32_incremental () =
  let s = "stream of bytes, checksummed in pieces" in
  let crc = Crc32.update 0 s ~pos:0 ~len:10 in
  let crc = Crc32.update crc s ~pos:10 ~len:(String.length s - 10) in
  Alcotest.(check int) "incremental = one-shot" (Crc32.string s) crc;
  Alcotest.(check bool) "differs from a different string" true
    (Crc32.string s <> Crc32.string (s ^ "!"))

(* --- frame --- *)

let frames payloads =
  let buf = Buffer.create 256 in
  List.iter (Frame.add buf) payloads;
  Buffer.contents buf

let read_all path =
  let ic = open_in_bin path in
  let rec go acc =
    match Frame.read ic with
    | Frame.Record p -> go (p :: acc)
    | Frame.End ->
        close_in ic;
        Ok (List.rev acc)
    | Frame.Torn off ->
        close_in ic;
        Error (List.rev acc, off)
  in
  go []

let test_frame_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "frames" in
      let payloads = [ "alpha"; ""; "\x00\xff\x01binary\n" ] in
      write_file path (frames payloads);
      match read_all path with
      | Ok got -> Alcotest.(check (list string)) "payloads" payloads got
      | Error _ -> Alcotest.fail "unexpected torn frame")

let test_frame_torn_truncated () =
  with_dir (fun dir ->
      let path = Filename.concat dir "frames" in
      let whole = frames [ "first" ] in
      (* A second frame cut off mid-payload. *)
      let torn = frames [ "second-never-lands" ] in
      write_file path (whole ^ String.sub torn 0 (String.length torn - 3));
      match read_all path with
      | Ok _ -> Alcotest.fail "torn tail not detected"
      | Error (got, off) ->
          Alcotest.(check (list string)) "durable prefix" [ "first" ] got;
          Alcotest.(check int) "offset of the bad frame" (String.length whole) off)

let test_frame_torn_corrupt () =
  with_dir (fun dir ->
      let path = Filename.concat dir "frames" in
      let encoded = frames [ "aaaa"; "bbbb" ] in
      (* Flip a byte inside the second frame's payload. *)
      let b = Bytes.of_string encoded in
      Bytes.set b (String.length encoded - 1) 'X';
      write_file path (Bytes.to_string b);
      match read_all path with
      | Ok _ -> Alcotest.fail "corruption not detected"
      | Error (got, off) ->
          Alcotest.(check (list string)) "durable prefix" [ "aaaa" ] got;
          Alcotest.(check int) "offset" (Frame.header_bytes + 4) off)

let test_frame_torn_huge_length () =
  with_dir (fun dir ->
      let path = Filename.concat dir "frames" in
      (* A header claiming a payload far beyond max_payload: corruption,
         not an allocation request. *)
      let b = Bytes.create 8 in
      Bytes.set_int32_be b 0 0x7fffffffl;
      Bytes.set_int32_be b 4 0l;
      write_file path (frames [ "ok" ] ^ Bytes.to_string b);
      match read_all path with
      | Ok _ -> Alcotest.fail "huge length accepted"
      | Error (got, _) -> Alcotest.(check (list string)) "prefix" [ "ok" ] got)

let test_frame_max_payload () =
  let buf = Buffer.create 16 in
  Alcotest.check_raises "oversized payload rejected"
    (Invalid_argument "Frame.add: payload too large") (fun () ->
      Frame.add buf (String.make (Frame.max_payload + 1) 'x'))

(* --- record --- *)

let sample_set =
  Record.Set
    {
      op = Record.Tcas;
      key = "key with spaces";
      flags = 0xDEADBEEF;
      exptime = 1_000_000_060.25;
      cas = 123_456_789_012;
      data = "\x00\x01\xffraw bytes";
    }

let test_record_roundtrip () =
  let roundtrip r = Alcotest.(check bool) "roundtrip" true (Record.decode (Record.encode r) = Ok r) in
  roundtrip sample_set;
  roundtrip (Record.Set { op = Record.Tset; key = ""; flags = 0; exptime = 0.; cas = 0; data = "" });
  roundtrip (Record.Delete "victim");
  roundtrip Record.Flush_all

let test_record_rejects_malformed () =
  let bad s =
    match Record.decode s with
    | Ok _ -> Alcotest.failf "decoded malformed %S" s
    | Error _ -> ()
  in
  bad "";
  bad "\x09";
  bad "not a record at all";
  (* A valid record with trailing garbage must not decode. *)
  bad (Record.encode (Record.Delete "k") ^ "x")

(* --- snapshot --- *)

let set_record i =
  Record.Set
    {
      op = Record.Tset;
      key = Printf.sprintf "k%04d" i;
      flags = i;
      exptime = 0.;
      cas = i + 1;
      data = String.make (1 + (i mod 32)) 'v';
    }

let write_snapshot ~dir ~gen n =
  Snapshot.write ~dir ~gen ~iter:(fun emit ->
      for i = 0 to n - 1 do
        emit (set_record i)
      done)

let test_snapshot_write_validate_load () =
  with_dir (fun dir ->
      Alcotest.(check int) "records written" 10 (write_snapshot ~dir ~gen:3 10);
      Alcotest.(check int) "records written" 20 (write_snapshot ~dir ~gen:7 20);
      (match Snapshot.files ~dir with
      | [ (3, _); (7, _) ] -> ()
      | _ -> Alcotest.fail "expected gens 3 and 7 ascending");
      (match Snapshot.validate (Filename.concat dir (Snapshot.filename ~gen:7)) with
      | Ok (gen, count) ->
          Alcotest.(check int) "validated gen" 7 gen;
          Alcotest.(check int) "validated count" 20 count
      | Error e -> Alcotest.failf "validate: %s" e);
      let got = ref [] in
      match Snapshot.load_newest ~dir ~f:(fun r -> got := r :: !got) with
      | Some (gen, count) ->
          Alcotest.(check int) "newest gen" 7 gen;
          Alcotest.(check int) "count" 20 count;
          Alcotest.(check bool) "streamed the records" true
            (List.rev !got = List.init 20 set_record)
      | None -> Alcotest.fail "no snapshot loaded")

let test_snapshot_rejects_torn_falls_back () =
  with_dir (fun dir ->
      ignore (write_snapshot ~dir ~gen:1 5);
      ignore (write_snapshot ~dir ~gen:2 8);
      (* Chop the trailer off gen 2: no completeness witness, whole file
         rejected, recovery falls back to gen 1. *)
      let newest = Filename.concat dir (Snapshot.filename ~gen:2) in
      let s = read_file newest in
      write_file newest (String.sub s 0 (String.length s - 10));
      (match Snapshot.validate newest with
      | Ok _ -> Alcotest.fail "torn snapshot validated"
      | Error _ -> ());
      let n = ref 0 in
      match Snapshot.load_newest ~dir ~f:(fun _ -> incr n) with
      | Some (gen, count) ->
          Alcotest.(check int) "fell back to gen 1" 1 gen;
          Alcotest.(check int) "gen 1 record count" 5 count;
          Alcotest.(check int) "streamed gen 1 only" 5 !n
      | None -> Alcotest.fail "valid older snapshot skipped")

let test_snapshot_failed_write_leaves_nothing () =
  with_dir (fun dir ->
      ignore (write_snapshot ~dir ~gen:1 4);
      let crash site =
        Rp_fault.arm site ~trigger:Rp_fault.Always ~action:Rp_fault.Raise;
        (try
           ignore (write_snapshot ~dir ~gen:2 4);
           Alcotest.failf "%s did not raise" site
         with Rp_fault.Injected _ -> ());
        Rp_fault.disarm site;
        Alcotest.(check (list string))
          (site ^ " leaves only gen 1")
          [ Snapshot.filename ~gen:1 ]
          (List.sort compare (Array.to_list (Sys.readdir dir)))
      in
      (* Mid-walk crash and crash in the pre-rename window: both must leave
         the directory exactly as it was (no tmp, no partial final). *)
      crash "persist.snapshot.record";
      crash "persist.snapshot.rename")

(* --- oplog --- *)

let test_oplog_policy_parse () =
  let ok s p =
    match Oplog.policy_of_string s with
    | Ok got -> Alcotest.(check bool) s true (got = p)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "always" Oplog.Always;
  ok "never" Oplog.Never;
  ok "every:100" (Oplog.Every 0.1);
  Alcotest.(check string) "name roundtrip" "every:100"
    (Oplog.policy_name (Oplog.Every 0.1));
  match Oplog.policy_of_string "sometimes" with
  | Ok _ -> Alcotest.fail "parsed garbage policy"
  | Error _ -> ()

let replay_records ~dir ~from_gen =
  let got = ref [] in
  let r = Oplog.replay ~dir ~from_gen ~f:(fun x -> got := x :: !got) in
  (r, List.rev !got)

let test_oplog_append_rotate_replay () =
  with_dir (fun dir ->
      let log = Oplog.open_ ~dir ~gen:1 ~fsync:Oplog.Always () in
      Oplog.append log (set_record 0);
      Oplog.append log (set_record 1);
      Alcotest.(check int) "gen" 1 (Oplog.gen log);
      Oplog.rotate log ~gen:2;
      Oplog.append log (Record.Delete "k0000");
      Oplog.close log;
      Alcotest.(check int) "two segments" 2 (List.length (Oplog.segments ~dir));
      let r, got = replay_records ~dir ~from_gen:1 in
      Alcotest.(check int) "records" 3 r.Oplog.records;
      Alcotest.(check int) "segments visited" 2 r.Oplog.segments;
      Alcotest.(check int) "no torn tail" 0 r.Oplog.truncated_bytes;
      Alcotest.(check bool) "order preserved" true
        (got = [ set_record 0; set_record 1; Record.Delete "k0000" ]);
      (* Replay from the rotation point skips the older segment. *)
      let r2, got2 = replay_records ~dir ~from_gen:2 in
      Alcotest.(check int) "newer records only" 1 r2.Oplog.records;
      Alcotest.(check bool) "newer content" true (got2 = [ Record.Delete "k0000" ]))

let test_oplog_torn_tail_truncated () =
  with_dir (fun dir ->
      let log = Oplog.open_ ~dir ~gen:1 ~fsync:Oplog.Always () in
      Oplog.append log (set_record 0);
      Oplog.close log;
      let path = Filename.concat dir (Oplog.filename ~gen:1) in
      let clean_len = (Unix.stat path).Unix.st_size in
      (* A crashed in-flight append: header promising 64 bytes, 5 present. *)
      append_file path "\x00\x00\x00\x40\x00\x00\x00\x00torn!";
      let r, got = replay_records ~dir ~from_gen:1 in
      Alcotest.(check int) "durable record survived" 1 r.Oplog.records;
      Alcotest.(check int) "torn bytes cut" 13 r.Oplog.truncated_bytes;
      Alcotest.(check bool) "content" true (got = [ set_record 0 ]);
      Alcotest.(check int) "file truncated back" clean_len
        (Unix.stat path).Unix.st_size;
      (* Second replay sees a clean file. *)
      let r2, _ = replay_records ~dir ~from_gen:1 in
      Alcotest.(check int) "clean on re-replay" 0 r2.Oplog.truncated_bytes)

let test_oplog_reopen_appends () =
  with_dir (fun dir ->
      let log = Oplog.open_ ~dir ~gen:1 ~fsync:Oplog.Never () in
      Oplog.append log (set_record 0);
      Oplog.sync log;
      Oplog.close log;
      (* Reopening an existing segment must append, not rewrite the header. *)
      let log = Oplog.open_ ~dir ~gen:1 ~fsync:Oplog.Always () in
      Oplog.append log (set_record 1);
      Oplog.close log;
      let r, got = replay_records ~dir ~from_gen:1 in
      Alcotest.(check int) "both appends" 2 r.Oplog.records;
      Alcotest.(check bool) "order" true (got = [ set_record 0; set_record 1 ]))

(* Replay is idempotent under at-least-once delivery: the replication
   plane re-sends whole segments on reconnect and overlaps its catch-up
   and live sources, so a batch applied twice — or a batch whose prefix
   was already applied — must converge to the same store. *)
let apply_to_model model = function
  | Record.Set { key; data; _ } -> Hashtbl.replace model key data
  | Record.Delete key -> Hashtbl.remove model key
  | Record.Flush_all -> Hashtbl.reset model

let model_of records =
  let m = Hashtbl.create 64 in
  List.iter (apply_to_model m) records;
  m

let check_models label a b =
  Alcotest.(check int) (label ^ ": size") (Hashtbl.length a) (Hashtbl.length b);
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt b k with
      | Some v' when v' = v -> ()
      | Some v' -> Alcotest.failf "%s: %s = %S, duplicated run got %S" label k v v'
      | None -> Alcotest.failf "%s: %s missing after duplicated replay" label k)
    a

let test_oplog_replay_idempotent_duplicates () =
  with_dir (fun dir ->
      (* A batch that overwrites, deletes, and re-adds — then the whole
         batch again (a full re-send), then a partial re-send of its
         tail. One clean pass must equal the duplicated mess. *)
      let batch =
        List.init 16 set_record
        @ [ Record.Delete "k0003"; Record.Delete "k0099" (* no-op delete *) ]
        @ List.init 4 (fun i -> set_record (i + 8))
      in
      let tail_resend =
        (* Partial re-send: the last 6 records again, as a reconnecting
           follower would see when its ack watermark lags its applies. *)
        List.filteri (fun i _ -> i >= List.length batch - 6) batch
      in
      let log = Oplog.open_ ~dir ~gen:1 ~fsync:Oplog.Never () in
      List.iter (Oplog.append log) batch;
      List.iter (Oplog.append log) batch;
      List.iter (Oplog.append log) tail_resend;
      Oplog.sync log;
      Oplog.close log;
      let replayed = Hashtbl.create 64 in
      let r =
        Oplog.replay ~dir ~from_gen:1 ~f:(apply_to_model replayed)
      in
      Alcotest.(check int) "every duplicate decoded"
        ((2 * List.length batch) + List.length tail_resend)
        r.Oplog.records;
      check_models "duplicated batches" (model_of batch) replayed)

let test_oplog_replay_idempotent_across_segments () =
  with_dir (fun dir ->
      (* The same records land once in gen 1 and again in gen 2 (the
         catch-up/live overlap after a rotation): replaying both segments
         equals replaying one. *)
      let batch = List.init 12 set_record @ [ Record.Delete "k0001" ] in
      let log = Oplog.open_ ~dir ~gen:1 ~fsync:Oplog.Never () in
      List.iter (Oplog.append log) batch;
      Oplog.rotate log ~gen:2;
      List.iter (Oplog.append log) batch;
      Oplog.close log;
      let replayed = Hashtbl.create 64 in
      ignore (Oplog.replay ~dir ~from_gen:1 ~f:(apply_to_model replayed));
      check_models "segment overlap" (model_of batch) replayed;
      (* Flush_all duplicated mid-stream also converges. *)
      let with_flush = batch @ [ Record.Flush_all ] @ batch in
      let log = Oplog.open_ ~dir ~gen:3 ~fsync:Oplog.Never () in
      List.iter (Oplog.append log) with_flush;
      List.iter (Oplog.append log) with_flush;
      Oplog.close log;
      let replayed3 = Hashtbl.create 64 in
      ignore (Oplog.replay ~dir ~from_gen:3 ~f:(apply_to_model replayed3));
      check_models "flush_all duplicated" (model_of with_flush) replayed3)

(* --- live tail cursor (the replication leader's catch-up source) --- *)

let test_oplog_tail_follows_live_appends () =
  with_dir (fun dir ->
      let log = Oplog.open_ ~dir ~gen:1 ~fsync:Oplog.Never () in
      Oplog.append log (set_record 0);
      Oplog.flush log;
      let cur = Oplog.Tail.create ~dir ~from_gen:1 in
      let next_record () =
        match Oplog.Tail.next cur with
        | `Record (gen, payload) -> (
            Alcotest.(check int) "gen" (Oplog.gen log) gen;
            match Record.decode payload with
            | Ok r -> r
            | Error e -> Alcotest.failf "payload decode: %s" e)
        | `Caught_up -> Alcotest.fail "expected a record"
      in
      Alcotest.(check bool) "first" true (next_record () = set_record 0);
      Alcotest.(check bool) "parks at end" true (Oplog.Tail.next cur = `Caught_up);
      (* Appends after the cursor parked: visible after a flush, no
         reopen needed. *)
      Oplog.append log (set_record 1);
      Oplog.append log (set_record 2);
      Alcotest.(check bool) "unflushed bytes invisible" true
        (Oplog.Tail.next cur = `Caught_up);
      Oplog.flush log;
      Alcotest.(check bool) "second" true (next_record () = set_record 1);
      Alcotest.(check bool) "third" true (next_record () = set_record 2);
      (* Rotation: cursor crosses into the new segment. *)
      Oplog.rotate log ~gen:2;
      Oplog.append log (set_record 3);
      Oplog.flush log;
      Alcotest.(check bool) "after rotate" true (next_record () = set_record 3);
      Alcotest.(check int) "cursor gen" 2 (Oplog.Tail.gen cur);
      Oplog.Tail.close cur;
      Oplog.close log)

(* --- manager: attach / snapshot / crash / warm restart --- *)

open Memcached

let make_store ?(backend = Store.Rp) ?(now = ref 1_000_000_000.0) () =
  (Store.create ~backend ~initial_size:64 ~clock:(fun () -> !now) (), now)

let get_data store key =
  Option.map (fun (v : Protocol.value) -> v.vdata) (Store.get store key)

let cas_of store key =
  match Store.get_many store ~with_cas:true [ key ] with
  | [ { vcas = Some c; _ } ] -> c
  | _ -> Alcotest.failf "no cas for %s" key

let with_manager ?snapshot_interval ?aof ?fsync ~dir store f =
  let p = Persist.attach ?snapshot_interval ?aof ?fsync ~dir store in
  Fun.protect ~finally:(fun () -> Persist.stop p) (fun () -> f p)

(* Under QSBR the snapshot domain is a registered reader: it goes
   offline after its walk and before every sleep, so a parked snapshotter
   holds up no grace period (DESIGN §11 "Snapshot-as-reader"). With no
   snapshot interval the domain parks after one on-demand snapshot;
   100 deletes from another domain then force a grace period (their
   reclamation callbacks flush at 64), which must end, without the stall
   watchdog counting a stall. The deadline only bounds a hang. *)
let test_persist_qsbr_parked_snapshotter () =
  with_dir (fun dir ->
      let store = Store.create ~backend:Store.Rp ~rcu_mode:Store.Qsbr ~initial_size:64 () in
      let keys = List.init 100 string_of_int in
      List.iter (fun key -> ignore (Store.set store ~key ~flags:0 ~exptime:0 ~data:"v")) keys;
      with_manager ~aof:false ~dir store (fun p ->
          (match Persist.snapshot_now p with
          | Ok n -> Alcotest.(check int) "snapshot records" 100 n
          | Error e -> Alcotest.failf "snapshot failed: %s" e);
          Store.reader_offline store;
          let deleted = Atomic.make false in
          let deleter =
            Domain.spawn (fun () ->
                List.iter (fun key -> ignore (Store.delete store key)) keys;
                Store.reader_offline store;
                Atomic.set deleted true)
          in
          let deadline = Unix.gettimeofday () +. 30.0 in
          while (not (Atomic.get deleted)) && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.01
          done;
          if not (Atomic.get deleted) then Alcotest.fail "the deletes' grace period never ended";
          Domain.join deleter;
          let stalls =
            Option.value ~default:0.0
              (Rp_obs.Registry.value (Store.registry store) "rcu_stalls_total")
          in
          Alcotest.(check (float 0.0)) "no stall counted" 0.0 stalls;
          Alcotest.(check int) "deleted" 0 (Store.items store)))

let test_persist_warm_restart () =
  with_dir (fun dir ->
      let now = ref 1_000_000_000.0 in
      let store, _ = make_store ~now () in
      with_manager ~dir store (fun p ->
          let r = Persist.recovery p in
          Alcotest.(check bool) "cold start" true (r.Persist.snapshot_gen = None);
          for i = 0 to 9 do
            ignore
              (Store.set store
                 ~key:(Printf.sprintf "k%d" i)
                 ~flags:i ~exptime:0 ~data:(Printf.sprintf "v%d" i))
          done;
          ignore (Store.set store ~key:"counter" ~flags:0 ~exptime:0 ~data:"41");
          Alcotest.(check bool) "incr" true (Store.incr store "counter" 1 = Store.Cvalue 42);
          ignore (Store.append store ~key:"k0" ~data:"+tail");
          Alcotest.(check bool) "delete" true (Store.delete store "k9");
          (match Persist.snapshot_now p with
          | Ok n -> Alcotest.(check bool) "snapshot covered the items" true (n >= 10)
          | Error e -> Alcotest.failf "snapshot: %s" e);
          (* Mutations after the snapshot land in the rotated log segment. *)
          ignore (Store.set store ~key:"post" ~flags:7 ~exptime:0 ~data:"snap"));
      let store2, _ = make_store ~now () in
      with_manager ~dir store2 (fun p2 ->
          let r = Persist.recovery p2 in
          Alcotest.(check bool) "recovered from a snapshot" true
            (r.Persist.snapshot_gen <> None);
          Alcotest.(check bool) "log tail replayed" true (r.Persist.log_records >= 1);
          Alcotest.(check int) "no torn tail" 0 r.Persist.log_truncated_bytes;
          Alcotest.(check (option string)) "concat survived" (Some "v0+tail")
            (get_data store2 "k0");
          Alcotest.(check (option string)) "counter survived" (Some "42")
            (get_data store2 "counter");
          Alcotest.(check (option string)) "post-snapshot set survived" (Some "snap")
            (get_data store2 "post");
          Alcotest.(check (option string)) "delete survived" None (get_data store2 "k9");
          (match Store.get store2 "k3" with
          | Some v -> Alcotest.(check int) "flags survived" 3 v.Protocol.vflags
          | None -> Alcotest.fail "k3 lost");
          Alcotest.(check int) "exact item count" 11 (Store.items store2)))

let test_persist_crash_recovery () =
  with_dir (fun dir ->
      let now = ref 1_000_000_000.0 in
      let store, _ = make_store ~now () in
      let p = Persist.attach ~dir store in
      ignore (Store.set store ~key:"acked" ~flags:0 ~exptime:0 ~data:"durable");
      (* Die without syncing or closing, then tear the newest segment's
         tail as an in-flight append would have. *)
      Persist.crash_for_testing p;
      let gen = match Persist.log_gen p with Some g -> g | None -> 1 in
      append_file
        (Filename.concat dir (Oplog.filename ~gen))
        "\x00\x00\x40\x00garbage";
      let store2, _ = make_store ~now () in
      with_manager ~dir store2 (fun p2 ->
          let r = Persist.recovery p2 in
          Alcotest.(check bool) "torn tail truncated" true
            (r.Persist.log_truncated_bytes > 0);
          Alcotest.(check (option string)) "acked op survived the crash"
            (Some "durable") (get_data store2 "acked")))

let test_persist_cas_survives () =
  with_dir (fun dir ->
      let now = ref 1_000_000_000.0 in
      let store, _ = make_store ~now () in
      with_manager ~dir store (fun _ ->
          ignore (Store.set store ~key:"k" ~flags:0 ~exptime:0 ~data:"v"));
      let c1 = cas_of store "k" in
      let store2, _ = make_store ~now () in
      with_manager ~dir store2 (fun _ ->
          Alcotest.(check int) "cas preserved across restart" c1 (cas_of store2 "k");
          (* The recovered CAS must stay a valid optimistic token... *)
          Alcotest.(check bool) "cas command accepts it" true
            (Store.cas store2 ~key:"k" ~flags:0 ~exptime:0 ~data:"w" ~unique:c1
            = Store.Stored);
          (* ...and future allocations must not collide with restored ones. *)
          Alcotest.(check bool) "new cas allocations stay unique" true
            (cas_of store2 "k" > c1)))

let test_persist_expired_dropped_on_restore () =
  with_dir (fun dir ->
      let now = ref 1_000_000_000.0 in
      let store, _ = make_store ~now () in
      with_manager ~dir store (fun _ ->
          ignore (Store.set store ~key:"short" ~flags:0 ~exptime:60 ~data:"v");
          ignore (Store.set store ~key:"forever" ~flags:0 ~exptime:0 ~data:"v"));
      (* Restart two minutes later: the absolute expiry recorded at set
         time has passed, so restore drops the item. *)
      let store2, _ = make_store ~now:(ref 1_000_000_120.0) () in
      with_manager ~dir store2 (fun _ ->
          Alcotest.(check (option string)) "expired record dropped" None
            (get_data store2 "short");
          Alcotest.(check (option string)) "live record kept" (Some "v")
            (get_data store2 "forever");
          Alcotest.(check int) "only the live item" 1 (Store.items store2)))

let test_persist_compaction () =
  with_dir (fun dir ->
      let store, _ = make_store () in
      with_manager ~dir store (fun p ->
          for round = 0 to 2 do
            ignore
              (Store.set store
                 ~key:(Printf.sprintf "r%d" round)
                 ~flags:0 ~exptime:0 ~data:"v");
            match Persist.snapshot_now p with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "snapshot %d: %s" round e
          done;
          (* Each successful snapshot compacts everything older away. *)
          Alcotest.(check int) "one snapshot kept" 1
            (List.length (Snapshot.files ~dir));
          Alcotest.(check bool) "old segments pruned" true
            (List.length (Oplog.segments ~dir) <= 2)))

let test_persist_snapshot_failure_keeps_previous () =
  with_dir (fun dir ->
      let store, _ = make_store () in
      with_manager ~dir store (fun p ->
          ignore (Store.set store ~key:"k" ~flags:0 ~exptime:0 ~data:"v");
          (match Persist.snapshot_now p with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "baseline snapshot: %s" e);
          let before = Snapshot.files ~dir in
          Rp_fault.arm "persist.snapshot.record" ~trigger:Rp_fault.Always
            ~action:Rp_fault.Raise;
          Fun.protect
            ~finally:(fun () -> Rp_fault.disarm "persist.snapshot.record")
            (fun () ->
              match Persist.snapshot_now p with
              | Ok _ -> Alcotest.fail "snapshot succeeded under Raise"
              | Error _ -> ());
          Alcotest.(check bool) "previous snapshot generation intact" true
            (Snapshot.files ~dir = before));
      (* And the store still recovers from the surviving generation. *)
      let store2, _ = make_store () in
      with_manager ~dir store2 (fun _ ->
          Alcotest.(check (option string)) "recovered" (Some "v")
            (get_data store2 "k")))

let test_persist_lock_backend () =
  with_dir (fun dir ->
      let store, _ = make_store ~backend:Store.Lock () in
      with_manager ~dir store (fun p ->
          ignore (Store.set store ~key:"k" ~flags:0 ~exptime:0 ~data:"v");
          match Persist.snapshot_now p with
          | Ok n -> Alcotest.(check int) "snapshot walks the locked table" 1 n
          | Error e -> Alcotest.failf "snapshot: %s" e);
      let store2, _ = make_store ~backend:Store.Lock () in
      with_manager ~dir store2 (fun _ ->
          Alcotest.(check (option string)) "recovered" (Some "v")
            (get_data store2 "k")))

let test_persist_stats_section () =
  with_dir (fun dir ->
      let store, _ = make_store () in
      with_manager ~dir store (fun p ->
          ignore (Store.set store ~key:"k" ~flags:0 ~exptime:0 ~data:"v");
          ignore (Persist.snapshot_now p);
          let stats = Option.get (Store.stats_section store "persist") in
          let get k =
            match List.assoc_opt k stats with
            | Some v -> v
            | None -> Alcotest.failf "missing persist stat %s" k
          in
          Alcotest.(check string) "enabled" "1" (get "persist_enabled");
          Alcotest.(check string) "aof enabled" "1" (get "persist_aof_enabled");
          Alcotest.(check string) "snapshots" "1" (get "persist_snapshots_total");
          Alcotest.(check bool) "appends counted" true
            (int_of_string (get "persist_log_appends_total") >= 1);
          (* The persist instruments live in their own stats section. *)
          Alcotest.(check bool) "not in plain stats" true
            (List.for_all
               (fun (k, _) -> not (String.length k >= 8 && String.sub k 0 8 = "persist_"))
               (Store.stats store))))

(* The on-disk format keeps float Unix seconds while items hold int
   times: a snapshot + op-log round trip must hand back the very same
   float bits for every kind of expiry — relative (from a clock reading
   with a fraction), absolute, never, and already expired. *)
let test_persist_exptime_bits () =
  with_dir (fun dir ->
      let now = ref 1_760_000_000.123456 in
      let exptimes dir =
        let tbl = Hashtbl.create 8 in
        let note = function
          | Record.Set { key; exptime; _ } ->
              Hashtbl.replace tbl key (Int64.bits_of_float exptime)
          | Record.Delete _ | Record.Flush_all -> ()
        in
        let from_gen =
          match Snapshot.load_newest ~dir ~f:note with Some (g, _) -> g | None -> 1
        in
        ignore (Oplog.replay ~dir ~from_gen ~f:note);
        tbl
      in
      let set store key exptime =
        ignore (Store.set store ~key ~flags:0 ~exptime ~data:"v")
      in
      let store, _ = make_store ~now () in
      with_manager ~dir store (fun p ->
          set store "relative" 600;
          set store "absolute" 2_000_000_000;
          set store "never" 0;
          set store "expired" (-1);
          (match Persist.snapshot_now p with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "snapshot: %s" e);
          (* After the snapshot: these live in the op log only. *)
          set store "logged" 3600;
          set store "touched" 0;
          Alcotest.(check bool) "touch" true (Store.touch store ~key:"touched" ~exptime:90));
      let before = exptimes dir in
      let store2, _ = make_store ~now () in
      with_manager ~dir store2 (fun p2 ->
          match Persist.snapshot_now p2 with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "second snapshot: %s" e);
      let after = exptimes dir in
      List.iter
        (fun key ->
          match (Hashtbl.find_opt before key, Hashtbl.find_opt after key) with
          | Some a, Some b ->
              Alcotest.(check int64) (key ^ ": exptime bits unchanged") a b
          | Some _, None -> Alcotest.failf "%s lost in the round trip" key
          | None, _ -> Alcotest.failf "%s was never logged" key)
        [ "relative"; "absolute"; "never"; "logged"; "touched" ];
      Alcotest.(check bool) "expired item not resurrected" false (Hashtbl.mem after "expired"))

let () =
  Alcotest.run "persist"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "torn: truncated" `Quick test_frame_torn_truncated;
          Alcotest.test_case "torn: corrupt byte" `Quick test_frame_torn_corrupt;
          Alcotest.test_case "torn: huge length" `Quick test_frame_torn_huge_length;
          Alcotest.test_case "max payload" `Quick test_frame_max_payload;
        ] );
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_record_rejects_malformed;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "write/validate/load" `Quick test_snapshot_write_validate_load;
          Alcotest.test_case "torn rejected, falls back" `Quick
            test_snapshot_rejects_torn_falls_back;
          Alcotest.test_case "failed write leaves nothing" `Quick
            test_snapshot_failed_write_leaves_nothing;
        ] );
      ( "oplog",
        [
          Alcotest.test_case "policy parsing" `Quick test_oplog_policy_parse;
          Alcotest.test_case "append/rotate/replay" `Quick test_oplog_append_rotate_replay;
          Alcotest.test_case "torn tail truncated" `Quick test_oplog_torn_tail_truncated;
          Alcotest.test_case "reopen appends" `Quick test_oplog_reopen_appends;
          Alcotest.test_case "replay idempotent: duplicated batches" `Quick
            test_oplog_replay_idempotent_duplicates;
          Alcotest.test_case "replay idempotent: across segments" `Quick
            test_oplog_replay_idempotent_across_segments;
          Alcotest.test_case "tail follows live appends" `Quick
            test_oplog_tail_follows_live_appends;
        ] );
      ( "manager",
        [
          Alcotest.test_case "warm restart" `Quick test_persist_warm_restart;
          Alcotest.test_case "crash + torn tail" `Quick test_persist_crash_recovery;
          Alcotest.test_case "cas survives" `Quick test_persist_cas_survives;
          Alcotest.test_case "expired dropped on restore" `Quick
            test_persist_expired_dropped_on_restore;
          Alcotest.test_case "compaction" `Quick test_persist_compaction;
          Alcotest.test_case "failed snapshot keeps previous" `Quick
            test_persist_snapshot_failure_keeps_previous;
          Alcotest.test_case "lock backend" `Quick test_persist_lock_backend;
          Alcotest.test_case "stats section" `Quick test_persist_stats_section;
          Alcotest.test_case "exptime bits survive" `Quick test_persist_exptime_bits;
          Alcotest.test_case "parked qsbr snapshotter stalls nothing" `Quick
            test_persist_qsbr_parked_snapshotter;
        ] );
    ]
