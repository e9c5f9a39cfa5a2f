type config = {
  table : string;
  scenario : string;
  duration : float;
  readers : int;
  writers : int;
  resizers : int;
  resident_keys : int;
  churn_keys : int;
  small_size : int;
  large_size : int;
  fault_injection : bool;
  seed : int;
}

let default_config =
  {
    table = "rp";
    scenario = "steady";
    duration = 0.5;
    readers = 2;
    writers = 1;
    resizers = 1;
    resident_keys = 1024;
    churn_keys = 512;
    small_size = 128;
    large_size = 4096;
    fault_injection = false;
    seed = 1;
  }

let tables : (string * (module Rp_baseline.Table_intf.TABLE)) list =
  [
    ("rp", (module Rp_baseline.Rp_table.Resizable));
    ("rp-qsbr", (module Rp_baseline.Rp_table.Qsbr));
    ("rp-fixed", (module Rp_baseline.Rp_table.Fixed));
    ("ddds", (module Rp_baseline.Ddds_ht));
    ("rwlock", (module Rp_baseline.Rwlock_ht));
    ("lock", (module Rp_baseline.Lock_ht));
    ("xu", (module Rp_baseline.Xu_ht));
  ]

let table_names = List.map fst tables

type report = {
  reader_checks : int;
  missing_resident : int;
  wrong_value : int;
  writer_ops : int;
  resize_flips : int;
  faults_injected : int;
  stalls_detected : int;
  recoveries : int;
  elapsed : float;
  metrics : (string * string) list;
}

(* Scenario-level assertions (stalls, recoveries) read the same registry
   the metrics snapshot renders, so what a run reports is exactly what a
   scrape would have shown. *)
let metric_int reg name =
  match Rp_obs.Registry.value reg name with
  | Some v -> int_of_float v
  | None -> 0

let violations r = r.missing_resident + r.wrong_value

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>reader checks:     %d@,missing residents: %d@,wrong values:      %d@,\
     writer ops:        %d@,resize flips:      %d@,faults injected:   %d@,\
     stalls detected:   %d@,recoveries:        %d@,elapsed:           %.2f s@,\
     verdict:           %s@]"
    r.reader_checks r.missing_resident r.wrong_value r.writer_ops
    r.resize_flips r.faults_injected r.stalls_detected r.recoveries r.elapsed
    (if violations r = 0 then "PASS" else "FAIL")

(* Resident values are key*3+1; churn values are key*5+2: a wrong pairing is
   detectable from the value alone. *)
let resident_value k = (k * 3) + 1
let churn_value k = (k * 5) + 2

module Prng = Rp_workload.Prng

(* Worker [index]'s stream: scenarios offset the run's seed per role
   (readers 0, writers 7 or 11, resizers 13, torn-I/O clients 31), so a
   seeded run replays the same streams. *)
let prng seed index = Prng.split (Prng.create ~seed) index

(* --- the oracle tally ---

   Run-time lookups, the final model sweep and structural checks all land
   here. A structural failure (a defense that never fired, a table that
   does not validate) counts as a wrong value. *)

type oracle = {
  missing : int Atomic.t;
  wrong : int Atomic.t;
  swept : int Atomic.t;  (** lookups made by the final model sweep *)
}

let oracle () =
  { missing = Atomic.make 0; wrong = Atomic.make 0; swept = Atomic.make 0 }

(* A resident key must be present with exactly its value. *)
let check_resident o ~expect = function
  | Some v when v = expect -> ()
  | Some _ -> Atomic.incr o.wrong
  | None -> Atomic.incr o.missing

(* A churned key may be absent, but never bound to a foreign value. *)
let check_churn o ~expect = function
  | Some v when v <> expect -> Atomic.incr o.wrong
  | Some _ | None -> ()

let require o ok = if not ok then Atomic.incr o.wrong
let vdata v = v.Memcached.Protocol.vdata

(* --- failpoints --- *)

(* Arm each [(site, seed, trigger, action)] around [f] and disarm exactly
   those on every exit path. A site keeps its fire count after a disarm
   (re-arming resets it), so {!fires} reads it afterwards. *)
let with_armed sites f =
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (site, _, _, _) -> Rp_fault.disarm site) sites)
    (fun () ->
      List.iter
        (fun (site, seed, trigger, action) ->
          Rp_fault.arm ~seed site ~trigger ~action)
        sites;
      f ())

let fires sites =
  List.fold_left (fun acc (site, _, _, _) -> acc + Rp_fault.fires site) 0 sites

(* Sites armed (with [Yield]/[Delay]) when [fault_injection] is on, to
   stretch grace periods and shift interleavings without changing
   semantics. *)
let perturbations config =
  if not config.fault_injection then []
  else
    List.map
      (fun (site, trigger, action) -> (site, config.seed, trigger, action))
      [
        ("rcu.synchronize.scan", Rp_fault.Probability 0.02, Rp_fault.Yield);
        ("rcu.call_rcu.enqueue", Rp_fault.Probability 0.02, Rp_fault.Yield);
        ("rp_ht.unzip.splice", Rp_fault.Probability 0.05, Rp_fault.Yield);
        ("rcu.synchronize.pre", Rp_fault.Probability 0.01, Rp_fault.Delay 5e-5);
      ]

(* --- the skeleton: one run phase, one base report, one teardown --- *)

type phase = {
  reader_ops : int;
  writer_ops : int;
  extra_ops : int array;  (** per extra worker, in order *)
  faults : int;  (** fires of every site the phase armed *)
  elapsed : float;
}

(* Arm the perturbation sites and the scenario's own [sites], run the
   readers, writers and [extra] workers (flippers, parkers, controllers)
   for the configured duration, and disarm on every exit path. A site in
   both lists is armed once, with the scenario's action, and its fires
   are counted once. *)
let run_phase config ?(sites = []) ?(extra = [||]) ~readers ~writers () =
  let own (site, _, _, _) = List.exists (fun (s, _, _, _) -> s = site) sites in
  let sites = List.filter (fun p -> not (own p)) (perturbations config) @ sites in
  let outcome =
    with_armed sites (fun () ->
        Rp_harness.Runner.run ~duration:config.duration
          ~workers:(Array.concat [ readers; writers; extra ])
          ())
  in
  let ops = outcome.per_worker_ops in
  let nr = Array.length readers and nw = Array.length writers in
  let sum off len = Array.fold_left ( + ) 0 (Array.sub ops off len) in
  {
    reader_ops = sum 0 nr;
    writer_ops = sum nr nw;
    extra_ops = Array.sub ops (nr + nw) (Array.length extra);
    faults = fires sites;
    elapsed = outcome.elapsed;
  }

(* The report every scenario starts from; each overrides only the fields
   it sets. *)
let base_report phase o =
  {
    reader_checks = phase.reader_ops + Atomic.get o.swept;
    missing_resident = Atomic.get o.missing;
    wrong_value = Atomic.get o.wrong;
    writer_ops = phase.writer_ops;
    resize_flips = 0;
    faults_injected = phase.faults;
    stalls_detected = 0;
    recoveries = 0;
    elapsed = phase.elapsed;
    metrics = [];
  }

(* One teardown per scenario: [defer] registers a release (a server stop,
   a child kill, a manager shutdown, a hook reset) and every release runs,
   newest first, however the scenario exits. A release that fails on the
   normal path fails the run once the others have run. *)
let with_teardown body =
  let releases = ref [] and mu = Mutex.create () in
  let defer release =
    Mutex.protect mu (fun () -> releases := release :: !releases)
  in
  let release_all () =
    List.fold_left
      (fun first release ->
        match release () with
        | () -> first
        | exception e -> if Option.is_none first then Some e else first)
      None !releases
  in
  match body ~defer with
  | report ->
      Option.iter raise (release_all ());
      report
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (release_all ());
      Printexc.raise_with_backtrace e bt

(* --- table workers: steady, crash_resizer, lazy_split_crash,
   stalled_reader --- *)

(* Oracle reader: resident keys must always be present and correct; churn
   keys may miss but must never carry a foreign value. A [residents_only]
   reader probes resident keys alone. *)
let table_reader ?(residents_only = false) ?(on_exit = ignore) config o ~find
    index ~stop =
  let prng = prng config.seed index in
  let checks = ref 0 in
  while not (Atomic.get stop) do
    if residents_only || Prng.below prng 4 > 0 then begin
      let k = Prng.below prng config.resident_keys in
      check_resident o ~expect:(resident_value k) (find k)
    end
    else if config.churn_keys > 0 then begin
      let k = config.resident_keys + Prng.below prng config.churn_keys in
      check_churn o ~expect:(churn_value k) (find k)
    end;
    incr checks
  done;
  on_exit ();
  !checks

(* Churn writer over the keys above the residents; [after] runs after
   every op. Under [crashes] an injected raise unwinds out of the op,
   leaving the table imprecise but complete; a later op recovers. *)
let churn_writer ?(crashes = false) ?(after = ignore) config ~insert ~remove
    index ~stop =
  let prng = prng (config.seed + 7) index in
  let ops = ref 0 in
  while (not (Atomic.get stop)) && config.churn_keys > 0 do
    let k = config.resident_keys + Prng.below prng config.churn_keys in
    (try
       if Prng.bool prng then insert k (churn_value k) else ignore (remove k)
     with Rp_fault.Injected _ when crashes -> ());
    after prng;
    incr ops
  done;
  !ops

(* Resize flipper: expands to [large_size] and shrinks back; each resize
   that completes is a flip. Under [crashes] a killed resize is survived. *)
let resize_flipper ?(crashes = false) ?(after = ignore) config ~resize ~flips
    index ~stop =
  let prng = prng (config.seed + 13) index in
  while not (Atomic.get stop) do
    List.iter
      (fun size ->
        match resize size with
        | () -> Atomic.incr flips
        | exception Rp_fault.Injected _ when crashes -> ())
      [ config.large_size; config.small_size ];
    after prng
  done;
  0

(* An int-keyed [Rp_ht] holding the residents, observed (table and RCU) by
   a fresh registry. *)
let observed_table config ?min_size ~auto_resize () =
  let t =
    Rp_ht.create ~initial_size:config.small_size ?min_size ~auto_resize
      ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  let reg = Rp_obs.Registry.create () in
  Rp_ht.observe t reg;
  Rcu.observe (Rp_ht.rcu t) reg;
  for k = 0 to config.resident_keys - 1 do
    Rp_ht.replace t k (resident_value k)
  done;
  (t, reg)

(* Finish every parked split, then demand a precise table with nothing
   pending. *)
let settle o t =
  Rp_ht.complete_splits t;
  require o (not (Rp_ht.recovery_pending t));
  require o (Result.is_ok (Rp_ht.validate t))

(* --- model workers: mixed_rw, crash_recovery, tier_crash,
   replication_divergence --- *)

(* Model writer: worker [index] owns key range [index] and mirrors every
   acked mutation into [models.(index)] — touched by this worker alone
   until the join, so no locking. One op in [set_one_in] is a delete,
   acked either way: afterwards the key is absent. *)
let model_writer ~seed ~set_one_in ~range ~key_name ~models ~data ~set ~delete
    index ~stop =
  let prng = prng seed index in
  let model = models.(index) in
  let ops = ref 0 in
  while not (Atomic.get stop) do
    let j = Prng.below prng range in
    let key = key_name index j in
    if Prng.below prng set_one_in > 0 then begin
      let data = data prng index j !ops in
      if set key data then Hashtbl.replace model key data
    end
    else begin
      ignore (delete key);
      Hashtbl.remove model key
    end;
    incr ops
  done;
  !ops

let stamp _prng i j ops = Printf.sprintf "%d:%d:%d" i j ops

(* Background reader over every writer's range: keeps the read path busy
   while the writers mutate it; [get i j] judges what it finds. *)
let range_reader config ~writers_n ~range ~get index ~stop =
  let prng = prng config.seed index in
  let checks = ref 0 in
  while not (Atomic.get stop) do
    let i = Prng.below prng writers_n in
    get i (Prng.below prng range);
    incr checks
  done;
  !checks

(* Final model sweep: the store must equal the union of the per-writer
   models exactly — every acked SET visible with its value, nothing lost,
   nothing invented. [items ()] is the store's item count ([None] when it
   cannot be read, itself a failure); every item beyond the models is a
   resurrection, counted as a wrong value. *)
let sweep o models ~get ~items =
  let expected = ref 0 and missing_before = Atomic.get o.missing in
  Array.iter
    (fun model ->
      expected := !expected + Hashtbl.length model;
      Hashtbl.iter
        (fun key data ->
          Atomic.incr o.swept;
          check_resident o ~expect:data (Option.map vdata (get key)))
        model)
    models;
  match items () with
  | None -> Atomic.incr o.wrong
  | Some items ->
      let extra =
        items - !expected + (Atomic.get o.missing - missing_before)
      in
      if extra > 0 then ignore (Atomic.fetch_and_add o.wrong extra)

let store_set store key data =
  match Memcached.Store.set store ~key ~flags:0 ~exptime:0 ~data with
  | Memcached.Store.Stored -> true
  | _ -> false

(* --- files, sockets and clients --- *)

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "rp-torture-%s-%d" name (Unix.getpid ()))

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A per-process directory for the scenario's files, emptied first (stale
   files from a previous crashed run would pollute recovery) and removed
   by the teardown. *)
let scratch_dir ~defer name =
  let dir = temp_path name in
  remove_tree dir;
  defer (fun () -> try remove_tree dir with Sys_error _ -> ());
  dir

(* The last act of a staged kill -9: a torn half-written record at the
   newest log segment's tail, as the interrupted append of a dying process
   would leave. Returns the bytes written. *)
let tear_log_tail dir =
  match List.rev (Rp_persist.Oplog.segments ~dir) with
  | [] -> 0
  | (_, path) :: _ ->
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      let garbage = "\x00\x00\x40\x00torn!" in
      let n = Unix.write_substring fd garbage 0 (String.length garbage) in
      Unix.close fd;
      n

let with_client ?(retries = 4) addr f =
  let c = Memcached.Client.connect ~retries addr in
  Fun.protect ~finally:(fun () -> Memcached.Client.close c) (fun () -> f c)

type fixture = {
  path : string;
  addr : Memcached.Server.address;
  server : Memcached.Server.t;
  key : int -> string;
}

(* A server on a fresh temp socket, stopped by the teardown, holding
   [extra] pairs and the resident keys, seeded over clean I/O; a failed
   SET counts as a missing resident. *)
let socket_fixture config o ~defer ~name ~prefix ?server_config ?(extra = [])
    store =
  let path = temp_path name ^ ".sock" in
  let addr = Memcached.Server.Unix_socket path in
  let server = Memcached.Server.start ~store ?config:server_config addr in
  defer (fun () -> Memcached.Server.stop server);
  let key k = prefix ^ string_of_int k in
  with_client addr (fun c ->
      List.iter
        (fun (key, data) -> ignore (Memcached.Client.set c ~key ~data ()))
        extra;
      for k = 0 to config.resident_keys - 1 do
        if
          not
            (Memcached.Client.set c ~key:(key k)
               ~data:(string_of_int (resident_value k))
               ())
        then Atomic.incr o.missing
      done);
  { path; addr; server; key }

(* Resident GET reader over the fixture's socket: every GET must return
   the exact value; an exception counts as a wrong value. *)
let resident_client_reader config o fx ~retries index ~stop =
  let prng = prng config.seed index in
  with_client ~retries fx.addr (fun c ->
      let checks = ref 0 in
      while not (Atomic.get stop) do
        let k = Prng.below prng config.resident_keys in
        (match Memcached.Client.get c (fx.key k) with
        | found ->
            check_resident o
              ~expect:(string_of_int (resident_value k))
              (Option.map vdata found)
        | exception _ -> Atomic.incr o.wrong);
        incr checks
      done;
      !checks)

(* Mutation flood on a persistent connection: a shed reply is an expected
   outcome, an exception a failure. *)
let shed_writer config o fx index ~stop =
  let prng = prng (config.seed + 7) index in
  with_client ~retries:2 fx.addr (fun c ->
      let ops = ref 0 in
      while not (Atomic.get stop) do
        let k =
          config.resident_keys + Prng.below prng (max 1 config.churn_keys)
        in
        (match
           Memcached.Client.try_set c ~key:(fx.key k)
             ~data:(string_of_int (churn_value k))
             ()
         with
        | `Stored | `Not_stored | `Overloaded _ -> ()
        | exception _ -> Atomic.incr o.wrong);
        incr ops
      done;
      !ops)

let await_healthy guard ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    if Rp_guard.state guard = Rp_guard.Healthy then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.005;
      poll ()
    end
  in
  poll ()

(* --- steady: any table behind the TABLE signature --- *)

let run_steady config ~defer:_ =
  let (module T : Rp_baseline.Table_intf.TABLE) =
    List.assoc config.table tables
  in
  let t =
    T.create ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal
      ~size:config.small_size ()
  in
  for k = 0 to config.resident_keys - 1 do
    T.insert t k (resident_value k)
  done;
  let o = oracle () and flips = Atomic.make 0 and injected = Atomic.make 0 in
  (* Random stalls: writers and resizers sleep <= 1 ms at 1 op in 64. *)
  let maybe_fault prng =
    if config.fault_injection && Prng.below prng 64 = 0 then begin
      Atomic.incr injected;
      Unix.sleepf (float_of_int (Prng.below prng 1000) *. 1e-6)
    end
  in
  let phase =
    run_phase config
      ~readers:
        (Array.init config.readers
           (table_reader
              ~on_exit:(fun () -> T.reader_exit t)
              config o ~find:(T.find t)))
      ~writers:
        (Array.init config.writers
           (churn_writer ~after:maybe_fault config ~insert:(T.insert t)
              ~remove:(T.remove t)))
      ~extra:
        (Array.init config.resizers
           (resize_flipper ~after:maybe_fault config ~resize:(T.resize t)
              ~flips))
      ()
  in
  {
    (base_report phase o) with
    resize_flips = Atomic.get flips;
    faults_injected = phase.faults + Atomic.get injected;
  }

(* --- crash_resizer: kill resizers mid-unzip, writers recover --- *)

let splice_site = "rp_ht.unzip.splice"

let run_crash_resizer config ~defer:_ =
  let t, reg = observed_table config ~auto_resize:false () in
  let o = oracle () and flips = Atomic.make 0 in
  (* Every splice evaluation may "crash" the resizer: the raise unwinds
     out of [Rp_ht.resize] leaving the interrupted unzip parked on the
     table (imprecise but complete). The next writer op completes it — and,
     walking the splice site too, can be "crashed" just like a resizer. *)
  let phase =
    run_phase config
      ~sites:
        [ (splice_site, config.seed, Rp_fault.Probability 0.02, Rp_fault.Raise) ]
      ~readers:
        (Array.init config.readers (table_reader config o ~find:(Rp_ht.find t)))
      ~writers:
        (Array.init config.writers
           (churn_writer ~crashes:true config ~insert:(Rp_ht.replace t)
              ~remove:(Rp_ht.remove t)))
      ~extra:
        (Array.init (max 1 config.resizers)
           (resize_flipper ~crashes:true config ~resize:(Rp_ht.resize t) ~flips))
      ()
  in
  (* A plain writer op must complete its own bucket's parked split; the
     remaining cells are finished explicitly — only then is the quiescent
     table required to validate precisely with nothing pending. *)
  Rp_ht.replace t 0 (resident_value 0);
  settle o t;
  {
    (base_report phase o) with
    resize_flips = Atomic.get flips;
    recoveries = metric_int reg "rp_ht_recoveries_total";
    metrics = Rp_obs.Registry.to_stats reg;
  }

(* --- lazy_split_crash: kill writers mid-lazy-split ---

   Auto-resize expansions park a split cell per bucket; the first writer
   to touch a bucket performs its split under its own stripe. Here both
   the ["rp_ht.split.lazy"] entry point and the splice inside the split
   are armed to raise, "crashing" writers just before and in the middle
   of their lazy splits, while a flipper keeps shrinking the table back
   down so auto-resize keeps re-expanding and parking fresh cells. The
   next writer to touch an affected bucket must finish the dead writer's
   split (counted in recoveries); residents must stay exact throughout,
   and after an explicit completion pass the table must validate with
   nothing pending. *)

let lazy_site = "rp_ht.split.lazy"

let run_lazy_split_crash config ~defer:_ =
  (* Seeding drives the first lazy expansions itself — before the kill
     sites go live. *)
  let t, reg =
    observed_table config ~min_size:config.small_size ~auto_resize:true ()
  in
  let o = oracle () and flips = Atomic.make 0 in
  (* Shrinking back down keeps auto-resize re-expanding — so lazy splits
     keep getting parked for writers to crash on all run long. The eager
     completion inside the explicit resize walks the splice site too. *)
  let flipper ~stop =
    while not (Atomic.get stop) do
      (try
         Rp_ht.resize t config.small_size;
         Atomic.incr flips
       with Rp_fault.Injected _ -> ());
      Unix.sleepf 0.002
    done;
    0
  in
  let phase =
    run_phase config
      ~sites:
        [
          (lazy_site, config.seed, Rp_fault.Probability 0.05, Rp_fault.Raise);
          ( splice_site,
            config.seed + 1,
            Rp_fault.Probability 0.02,
            Rp_fault.Raise );
        ]
      ~readers:
        (Array.init config.readers (table_reader config o ~find:(Rp_ht.find t)))
      ~writers:
        (Array.init (max 2 config.writers)
           (churn_writer ~crashes:true config ~insert:(Rp_ht.replace t)
              ~remove:(Rp_ht.remove t)))
      ~extra:[| flipper |] ()
  in
  (* Settle every parked split, then demand a precise, recovery-free
     table — and that the lazy path actually ran (a zero lazy-split count
     would mean the scenario tortured nothing). *)
  settle o t;
  require o (metric_int reg "rp_ht_lazy_splits_total" > 0);
  {
    (base_report phase o) with
    resize_flips = Atomic.get flips;
    recoveries = metric_int reg "rp_ht_recoveries_total";
    metrics = Rp_obs.Registry.to_stats reg;
  }

(* --- mixed_rw: 50/50 GET/SET against the striped store ---

   The multi-writer proof at the store layer: N mixed workers each own a
   disjoint key range and run a 50/50 GET/SET [Opmix] against one Rp
   store, so independent stripes mutate concurrently while every GET in
   a worker's own range is checked against that worker's model — exact
   truth, since nothing else writes the range, the byte budget rules out
   eviction, and nothing expires. Cross-range readers verify that any
   value they see carries its owner's "i:j:" stamp (a foreign or torn
   value is detectable from the payload alone). The run ends with the
   final model sweep. *)

let run_mixed_rw config ~defer:_ =
  let store =
    Memcached.Store.create ~backend:Memcached.Store.Rp
      ~max_bytes:(256 * 1024 * 1024) ()
  in
  let writers_n = max 4 config.writers and range = max 1 config.churn_keys in
  let key_name i j = Printf.sprintf "mk%d:%d" i j in
  let models = Array.init writers_n (fun _ -> Hashtbl.create 64) in
  let o = oracle () in
  let mixed index ~stop =
    let model = models.(index) in
    let mix =
      Rp_workload.Opmix.create ~update_ratio:0.5 ~remove_share:0.0
        ~seed:config.seed ~worker:index ()
    in
    let prng = prng (config.seed + 7) index in
    let ops = ref 0 in
    while not (Atomic.get stop) do
      let j = Prng.below prng range in
      let key = key_name index j in
      (match Rp_workload.Opmix.next mix with
      | Rp_workload.Opmix.Lookup -> (
          let found = Option.map vdata (Memcached.Store.get store key) in
          match Hashtbl.find_opt model key with
          | Some data -> check_resident o ~expect:data found
          | None -> require o (found = None))
      | Rp_workload.Opmix.Insert | Rp_workload.Opmix.Remove ->
          let data = stamp prng index j !ops in
          if store_set store key data then Hashtbl.replace model key data
          else Atomic.incr o.wrong);
      incr ops
    done;
    !ops
  in
  (* Cross-range readers can't know presence, but every value they do see
     must carry its owner's stamp. *)
  let stamped i j =
    match Memcached.Store.get store (key_name i j) with
    | None -> ()
    | Some v ->
        require o
          (String.starts_with ~prefix:(Printf.sprintf "%d:%d:" i j) (vdata v))
  in
  let phase =
    run_phase config
      ~readers:
        (Array.init config.readers
           (range_reader config ~writers_n ~range ~get:stamped))
      ~writers:(Array.init writers_n mixed)
      ()
  in
  sweep o models ~get:(Memcached.Store.get store) ~items:(fun () ->
      Some (Memcached.Store.items store));
  (* The point of the scenario is concurrent writers: striping must
     actually be on. *)
  require o (Memcached.Store.write_stripes store >= 2);
  let reg = Memcached.Store.registry store in
  {
    (base_report phase o) with
    resize_flips = metric_int reg "rp_ht_lazy_splits_total";
    recoveries = metric_int reg "rp_ht_recoveries_total";
    metrics = Rp_obs.Registry.to_stats reg;
  }

(* --- stalled_reader: park a reader, catch it with the watchdog --- *)

let run_stalled_reader config ~defer =
  let t, reg = observed_table config ~auto_resize:false () in
  let rcu = Rp_ht.rcu t in
  let budget = 0.02 in
  Rcu.set_stall_budget rcu (Some budget);
  Rcu.set_stall_handler rcu (Some ignore);
  defer (fun () ->
      Rcu.set_stall_handler rcu None;
      Rcu.set_stall_budget rcu None);
  let o = oracle () and flips = Atomic.make 0 in
  (* The culprit: periodically naps inside a read-side critical section for
     several times the stall budget, so any overlapping grace period trips
     the watchdog. Naps are spaced out so most grace periods stay fast. *)
  let parker ~stop =
    let r = Rcu.register rcu in
    let parks = ref 0 in
    while not (Atomic.get stop) do
      Rcu.read_lock r;
      Unix.sleepf (4.0 *. budget);
      Rcu.read_unlock r;
      incr parks;
      Unix.sleepf budget
    done;
    Rcu.unregister rcu r;
    !parks
  in
  let resizers =
    Array.init (max 1 config.resizers)
      (resize_flipper config ~resize:(Rp_ht.resize t) ~flips)
  in
  let phase =
    run_phase config
      ~readers:
        (Array.init config.readers
           (table_reader ~residents_only:true config o ~find:(Rp_ht.find t)))
      ~writers:
        (Array.init config.writers
           (churn_writer config ~insert:(Rp_ht.replace t)
              ~remove:(Rp_ht.remove t)))
      ~extra:(Array.append resizers [| parker |])
      ()
  in
  let parks = phase.extra_ops.(Array.length resizers) in
  {
    (base_report phase o) with
    resize_flips = Atomic.get flips;
    faults_injected = phase.faults + parks;
    stalls_detected = metric_int reg "rcu_stalls_total";
    recoveries = metric_int reg "rp_ht_recoveries_total";
    metrics = Rp_obs.Registry.to_stats reg;
  }

(* --- torn_io: memcached over a torn-up socket --- *)

let torn_sites seed =
  [
    ("server.read.split", seed, Rp_fault.Probability 0.25, Rp_fault.Truncate_io 5);
    ( "server.write.partial",
      seed,
      Rp_fault.Probability 0.25,
      Rp_fault.Truncate_io 7 );
    ( "client.write.partial",
      seed,
      Rp_fault.Probability 0.25,
      Rp_fault.Truncate_io 7 );
    ("server.conn.reset", seed, Rp_fault.Probability 0.02, Rp_fault.Raise);
  ]

let run_torn_io config ~defer =
  let store = Memcached.Store.create ~backend:Memcached.Store.Rp () in
  let o = oracle () in
  (* Seed resident keys over clean I/O, then tear the transport up. *)
  let fx = socket_fixture config o ~defer ~name:"torn" ~prefix:"tk" store in
  let fresh_client () = Memcached.Client.connect ~retries:8 fx.addr in
  let transient = function
    | Memcached.Client.Disconnected _ | Unix.Unix_error _ | End_of_file
    | Failure _ ->
        true
    | _ -> false
  in
  let client_worker role index ~stop =
    let prng = prng (config.seed + 31) index in
    let c = ref (fresh_client ()) in
    let ops = ref 0 in
    while not (Atomic.get stop) do
      (try
         match role with
         | `Get ->
             let k = Prng.below prng config.resident_keys in
             check_resident o
               ~expect:(string_of_int (resident_value k))
               (Option.map vdata (Memcached.Client.get !c (fx.key k)))
         | `Set ->
             let k =
               config.resident_keys + Prng.below prng (max 1 config.churn_keys)
             in
             if Prng.bool prng then
               ignore
                 (Memcached.Client.set !c ~key:(fx.key k)
                    ~data:(string_of_int (churn_value k))
                    ())
             else
               check_churn o
                 ~expect:(string_of_int (churn_value k))
                 (Option.map vdata (Memcached.Client.get !c (fx.key k)))
       with e when transient e ->
         (* Retry budget exhausted on a dead connection: replace it and
            keep going — availability, not consistency, took the hit. *)
         (try Memcached.Client.close !c with _ -> ());
         (try c := fresh_client () with _ -> Unix.sleepf 0.01));
      incr ops
    done;
    (try Memcached.Client.close !c with _ -> ());
    !ops
  in
  let phase =
    run_phase config ~sites:(torn_sites config.seed)
      ~readers:(Array.init config.readers (client_worker `Get))
      ~writers:
        (Array.init (max 1 config.writers) (fun i ->
             client_worker `Set (i + 100)))
      ()
  in
  {
    (base_report phase o) with
    metrics = Rp_obs.Registry.to_stats (Memcached.Store.registry store);
  }

(* --- crash_recovery: kill -9 mid-snapshot, warm-restart, diff ---

   Writers mutate disjoint key ranges of a persisted store (fsync=always,
   so every acknowledged op is durable before the ack) while a dedicated
   worker takes snapshot after snapshot. The run ends with a staged
   process death: a failpoint "crashes" the snapshotter mid-walk, the
   manager is torn down without any graceful sync, and the newest log
   segment gets a torn tail appended — everything a [kill -9] leaves
   behind. A fresh store then warm-restarts from the directory and must
   match the writers' tracked models {e exactly}: durable-acked sets and
   deletes survive, nothing resurrects, nothing is invented. *)

let snapshot_record_site = "persist.snapshot.record"

let run_crash_recovery config ~defer =
  let dir = scratch_dir ~defer "persist" in
  let make_store () =
    (* Budget far above the working set: eviction is not logged, so this
       scenario keeps it out of the durable-equality oracle. *)
    Memcached.Store.create ~backend:Memcached.Store.Rp
      ~max_bytes:(256 * 1024 * 1024) ()
  in
  let store = make_store () in
  let persist =
    Memcached.Persist.attach ~aof:true ~fsync:Rp_persist.Oplog.Always ~dir
      store
  in
  defer (fun () -> Memcached.Persist.stop persist);
  let key_name i j = Printf.sprintf "pk%d:%d" i j in
  let range = max 1 config.churn_keys and writers_n = max 1 config.writers in
  let models = Array.init writers_n (fun _ -> Hashtbl.create 64) in
  let snapshots_ok = Atomic.make 0 in
  let snapshotter ~stop =
    let n = ref 0 in
    while not (Atomic.get stop) do
      (match Memcached.Persist.snapshot_now persist with
      | Ok _ -> Atomic.incr snapshots_ok
      | Error _ -> ());
      incr n;
      Unix.sleepf 0.005
    done;
    !n
  in
  (* Background reads keep the relativistic fast path busy while the
     snapshot walk shares its read sections with them. *)
  let phase =
    run_phase config
      ~readers:
        (Array.init config.readers
           (range_reader config ~writers_n ~range ~get:(fun i j ->
                ignore (Memcached.Store.get store (key_name i j)))))
      ~writers:
        (Array.init writers_n
           (model_writer ~seed:(config.seed + 7) ~set_one_in:4 ~range
              ~key_name ~models ~data:stamp ~set:(store_set store)
              ~delete:(Memcached.Store.delete store)))
      ~extra:[| snapshotter |] ()
  in
  (* Stage the kill -9: crash the next snapshot mid-walk (after the op log
     has already rotated — the window where a real death loses the
     in-flight snapshot but must lose nothing else)... *)
  let crash_sites =
    [ (snapshot_record_site, config.seed, Rp_fault.Every 10, Rp_fault.Raise) ]
  in
  let crash_failed_snapshot =
    with_armed crash_sites (fun () ->
        match Memcached.Persist.snapshot_now persist with
        | Error _ -> 1
        | Ok _ -> 0 (* tiny table: walk ended before the 10th record *))
  in
  (* ...kill the manager with no graceful sync or close, and tear the
     newest segment's tail. *)
  Memcached.Persist.crash_for_testing persist;
  let torn_bytes = tear_log_tail dir in
  (* Warm restart into a fresh store; recovery must reassemble the exact
     durable state. *)
  let store2 = make_store () in
  let persist2 = Memcached.Persist.attach ~aof:true ~dir store2 in
  defer (fun () -> Memcached.Persist.stop persist2);
  let recovery = Memcached.Persist.recovery persist2 in
  let o = oracle () in
  sweep o models ~get:(Memcached.Store.get store2) ~items:(fun () ->
      Some (Memcached.Store.items store2));
  require o (recovery.Memcached.Persist.log_truncated_bytes >= torn_bytes);
  let recovered (name, _) =
    String.starts_with ~prefix:"persist_recovered_" name
  in
  let section s = Option.get (Memcached.Store.stats_section s "persist") in
  {
    (base_report phase o) with
    faults_injected =
      phase.faults + fires crash_sites + crash_failed_snapshot
      + if torn_bytes > 0 then 1 else 0;
    (* "recoveries" here = durable recovery points exercised: snapshots
       published during the run, plus the warm restart itself. *)
    recoveries = Atomic.get snapshots_ok + 1;
    metrics =
      List.filter (fun m -> not (recovered m)) (section store)
      @ List.filter recovered (section store2);
  }

(* --- tier_crash: SIGKILL mid-demotion and mid-compaction ---

   A store squeezed to a fraction of its working set runs with both the
   cold tier and fsync=always persistence attached, so the eviction
   sweep demotes continuously while writers churn. Failpoints kill
   segment appends mid-demotion (the store must fall back to plain
   eviction, never crash a writer) and poison reads at low probability;
   a staged compaction pass dies on the same failpoint mid-copy. Then
   the process "dies": the persist manager is torn down with no graceful
   sync, the newest log segment gets a torn tail, and the tier is
   abandoned with whatever segments it had. A warm restart re-attaches
   both planes — recovery replays every value hot, the post-recovery
   sweep re-demotes the overflow into fresh segments, and tier recovery
   drops the now fully-dead old ones. The oracle is exact: every
   acked-durable SET must come back with its exact value (from RAM or
   via a cold promote), acked deletes must stay dead, nothing invented. *)

let run_tier_crash config ~defer =
  let root = scratch_dir ~defer "tier" in
  let data_dir = Filename.concat root "data" in
  let tier_dir = Filename.concat root "tier" in
  let range = max 1 config.churn_keys and writers_n = max 1 config.writers in
  (* Budget ~1/8 of the working set: most of the key range can only be
     resident as cold markers, so demotion/promotion is the steady state
     rather than a corner case — and even a churn-thinned recovered set
     still overflows it, keeping the post-restart sweep demoting. *)
  let working_set = writers_n * range * (config.large_size + 128) in
  let max_bytes = max 4096 (working_set / 8) in
  let make_store () =
    Memcached.Store.create ~backend:Memcached.Store.Rp ~max_bytes ()
  in
  (* Tiny segments so the run seals plenty of them — compaction and the
     fully-dead auto-drop need sealed segments to chew on. *)
  let attach_tier store =
    match
      Memcached.Tier.attach ~segment_bytes:4096 ~dir:tier_dir ~max_mb:64 store
    with
    | Ok t ->
        defer (fun () -> Memcached.Tier.stop t);
        t
    | Error m -> failwith ("tier_crash: tier attach failed: " ^ m)
  in
  let store = make_store () in
  let tier = attach_tier store in
  let persist =
    Memcached.Persist.attach ~aof:true ~fsync:Rp_persist.Oplog.Always
      ~dir:data_dir store
  in
  defer (fun () -> Memcached.Persist.stop persist);
  ignore (Memcached.Tier.finish_recovery tier);
  (* Mid-demotion kills: every few segment appends dies half-written. The
     demote must fail closed (plain eviction), never take the writer
     thread with it. Reads get torn frames now and then; a torn frame
     drops the marker — the value is still in the op log. *)
  let sites =
    if not config.fault_injection then []
    else
      [
        (Rp_tier.append_site, config.seed, Rp_fault.Every 7, Rp_fault.Raise);
        ( Rp_tier.read_torn_site,
          config.seed,
          Rp_fault.Probability 0.02,
          Rp_fault.Raise );
      ]
  in
  let key_name i j = Printf.sprintf "tk%d:%d" i j in
  let models = Array.init writers_n (fun _ -> Hashtbl.create 64) in
  let size_span = max 1 (config.large_size - config.small_size) in
  let sized prng i j ops =
    let body =
      String.make (config.small_size + Prng.below prng size_span) 'v'
    in
    Printf.sprintf "%d:%d:%d:%s" i j ops body
  in
  (* Readers hammer the promote path: most of the range is demoted, so a
     random GET is usually a cold hit — disk read, stripe reinsert, and
     the sweep demoting something else to make room. *)
  let phase =
    run_phase config ~sites
      ~readers:
        (Array.init config.readers
           (range_reader config ~writers_n ~range ~get:(fun i j ->
                ignore (Memcached.Store.get store (key_name i j)))))
      ~writers:
        (Array.init writers_n
           (model_writer ~seed:(config.seed + 11) ~set_one_in:5 ~range
              ~key_name ~models ~data:sized ~set:(store_set store)
              ~delete:(Memcached.Store.delete store)))
      ()
  in
  (* Make a compaction candidate (a mostly-dead sealed segment): delete a
     slice of currently-cold keys, then kill the compactor's relocation
     appends mid-copy. Skipped copies must leave the old frames live and
     readable — the crash lands before compaction gets another shot. *)
  Array.iter
    (fun model ->
      let doomed =
        Hashtbl.fold
          (fun key _ acc ->
            if
              List.length acc < range / 4
              && Memcached.Store.tier_location store key <> None
            then key :: acc
            else acc)
          model []
      in
      List.iter
        (fun key ->
          ignore (Memcached.Store.delete store key);
          Hashtbl.remove model key)
        doomed)
    models;
  let compaction_sites =
    [ (Rp_tier.append_site, config.seed, Rp_fault.Always, Rp_fault.Raise) ]
  in
  with_armed compaction_sites (fun () ->
      ignore (Memcached.Tier.compact_once tier));
  (* The kill -9: no graceful sync, a torn half-record at the log tail,
     the tier abandoned mid-flight (its segments stay as they fell). *)
  Memcached.Persist.crash_for_testing persist;
  let torn_bytes = tear_log_tail data_dir in
  Memcached.Tier.stop tier;
  (* Warm restart, both planes re-attached in the two-phase order. The
     post-recovery sweep demotes the overflow through the fresh tier, so
     the oracle walk below exercises real cold reads, not just RAM. *)
  let store2 = make_store () in
  let tier2 = attach_tier store2 in
  let persist2 = Memcached.Persist.attach ~aof:true ~dir:data_dir store2 in
  defer (fun () -> Memcached.Persist.stop persist2);
  let recovery = Memcached.Persist.recovery persist2 in
  let dropped_segments = Memcached.Tier.finish_recovery tier2 in
  let o = oracle () in
  sweep o models ~get:(Memcached.Store.get store2) ~items:(fun () ->
      Some (Memcached.Store.items store2));
  require o (recovery.Memcached.Persist.log_truncated_bytes >= torn_bytes);
  (* The restart must actually have exercised the tier: demotions from
     the post-recovery sweep, promotions from the oracle's cold GETs. *)
  let demotions2 = Memcached.Store.tier_demotions store2 in
  let promotions2 = Memcached.Store.tier_promotions store2 in
  {
    (base_report phase o) with
    faults_injected =
      (phase.faults + fires compaction_sites + if torn_bytes > 0 then 1 else 0);
    (* A restart that never demoted or never promoted proves nothing —
       surface it as a stall so the gate fails loudly. *)
    stalls_detected = (if demotions2 = 0 || promotions2 = 0 then 1 else 0);
    recoveries = 1;
    metrics =
      ("tier_recovery_dropped_segments", string_of_int dropped_segments)
      :: Rp_obs.Registry.to_stats (Memcached.Store.registry store2);
  }

(* --- overload_storm: flood of mutations against the guard ---

   A small fleet of storm writers and a couple of oracle GET readers sit
   on persistent connections sized so that connection pressure lands in
   the guard's Shed band. The ladder must climb, mutations must come
   back as [SERVER_ERROR overloaded] (counted, never crashed on), GETs
   must stay error-free throughout, and once the storm stops the ladder
   must walk back to Healthy within a few sweeps. The transitions must
   be visible from the outside: [stats guard] lines and control-tier
   ["guard.state"] events in the flight-recorder export. *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let run_overload_storm config ~defer =
  let store = Memcached.Store.create ~backend:Memcached.Store.Rp () in
  let guard = Memcached.Guard.install ~interval:0.01 store in
  let readers_n = max 1 config.readers and storm_n = max 6 config.writers in
  (* Size admission so the steady connection count sits inside the Shed
     band: total/(total+1) is >= 0.85 from 7 connections up and stays
     below the Emergency rung until ~19. *)
  let server_config =
    {
      Memcached.Server.default_config with
      max_inflight = readers_n + storm_n + 1;
    }
  in
  let o = oracle () in
  (* Seed the oracle keys before the sweeper starts: mutations are still
     admitted while the guard sleeps. *)
  let fx =
    socket_fixture config o ~defer ~name:"storm" ~prefix:"sk" ~server_config
      store
  in
  Memcached.Guard.watch_server guard fx.server;
  Rp_guard.start guard;
  defer (fun () -> Rp_guard.stop guard);
  (* Oracle: under full shed, reads must stay exact — never an error,
     never a stale or missing resident. *)
  let phase =
    run_phase config
      ~readers:
        (Array.init readers_n (resident_client_reader config o fx ~retries:2))
      ~writers:(Array.init storm_n (fun i -> shed_writer config o fx (i + 100)))
      ()
  in
  (* Storm gone, connections closed: the ladder must resolve back to
     Healthy within a few sweep intervals. *)
  let recovered = await_healthy guard ~timeout:2.0 in
  (* The incident must be legible from the outside: live [stats guard]
     lines over the wire, and the state transitions as control-tier
     events in the trace export. *)
  (match with_client fx.addr (Memcached.Client.stats ~arg:"guard") with
  | kvs ->
      require o (List.mem_assoc "guard_state_name" kvs);
      require o (List.mem_assoc "guard_shed_total" kvs)
  | exception _ -> ignore (Atomic.fetch_and_add o.wrong 2));
  require o (contains_substring (Rp_trace.export_json ()) "guard.state");
  {
    (base_report phase o) with
    faults_injected = phase.faults + Rp_guard.shed_total guard;
    stalls_detected = Rp_guard.transitions guard;
    recoveries = Bool.to_int recovered;
    metrics = Rp_obs.Registry.to_stats (Memcached.Store.registry store);
  }

(* --- slow_client: one non-draining socket vs the event loop ---

   A victim connection pipelines GETs of a 4 KiB value and never reads a
   byte back. The event-loop plane must park its pipeline at the
   per-connection write cap (bounded coalescer memory), stop reading
   from it, and — once it makes no progress for a whole drain deadline —
   kill it, while a well-behaved client on the same worker keeps
   streaming verified GETs the entire time. *)

let run_slow_client config ~defer =
  let store =
    Memcached.Store.create ~backend:Memcached.Store.Rp
      ~rcu_mode:Memcached.Store.Qsbr ()
  in
  let server_config =
    {
      Memcached.Server.default_config with
      workers = 1;
      conn_write_cap = 8192;
      drain_deadline = Float.min 0.05 (config.duration /. 2.);
    }
  in
  let o = oracle () in
  let fx =
    socket_fixture config o ~defer ~name:"slow" ~prefix:"wk" ~server_config
      ~extra:[ ("big", String.make 4096 'x') ]
      store
  in
  let victim_killed = Atomic.make 0 in
  (* The abuser: pipeline big GETs as fast as the socket accepts and
     never read a response. A tiny receive buffer makes the kernel stop
     accepting server bytes almost immediately, so the server's write
     cap and drain deadline do the rest. *)
  let victim ~stop =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.setsockopt_int fd Unix.SO_RCVBUF 4096
     with Unix.Unix_error _ -> ());
    match Unix.connect fd (Unix.ADDR_UNIX fx.path) with
    | exception _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        0
    | () ->
        Unix.set_nonblock fd;
        let req =
          Bytes.of_string
            (String.concat "" (List.init 64 (fun _ -> "get big\r\n")))
        in
        let sent = ref 0 in
        let dead = ref false in
        while (not (Atomic.get stop)) && not !dead do
          match Unix.write fd req 0 (Bytes.length req) with
          | n -> sent := !sent + n
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              Unix.sleepf 0.002
          | exception Unix.Unix_error _ ->
              (* EPIPE/ECONNRESET: the server executed us. *)
              Atomic.incr victim_killed;
              dead := true
        done;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        !sent
  in
  let phase =
    run_phase config
      ~readers:
        (Array.init (max 1 config.readers)
           (resident_client_reader config o fx ~retries:4))
      ~writers:[| victim |] ()
  in
  let reg = Memcached.Store.registry store in
  let kills = metric_int reg "guard_slow_client_kills_total" in
  (* A zero kill count means the defense never fired: structural failure,
     not just a missing stat. *)
  require o (kills > 0);
  {
    (base_report phase o) with
    faults_injected = phase.faults + kills;
    recoveries = Atomic.get victim_killed;
    metrics = Rp_obs.Registry.to_stats reg;
  }

(* --- disk_full: op-log appends start failing mid-run ---

   Writers stream mutations into a persisted store while a chaos worker
   arms the ["persist.log.append"] failpoint mid-run. Appends fail, the
   disk source latches Emergency-level pressure, and the guard must
   degrade — mutations shed, snapshots paused, GETs still exact — then
   walk back to Healthy once the failpoint is disarmed and the error
   window expires, at which point a fresh mutation must succeed and log
   durably again. *)

let append_site = "persist.log.append"

let run_disk_full config ~defer =
  let dir = scratch_dir ~defer "diskfull" in
  let store =
    Memcached.Store.create ~backend:Memcached.Store.Rp
      ~max_bytes:(256 * 1024 * 1024) ()
  in
  let guard = Memcached.Guard.install ~interval:0.01 store in
  let persist =
    Memcached.Persist.attach ~aof:true ~fsync:Rp_persist.Oplog.Always ~dir
      store
  in
  defer (fun () -> Memcached.Persist.stop persist);
  Memcached.Guard.watch_persist guard ~error_window:0.05 persist;
  let o = oracle () in
  let fx = socket_fixture config o ~defer ~name:"diskfull" ~prefix:"dk" store in
  Memcached.Guard.watch_server guard fx.server;
  Rp_guard.start guard;
  defer (fun () -> Rp_guard.stop guard);
  (* The disk chaos: a third into the run every op-log append starts
     raising (ENOSPC stand-in); a third later the disk "clears". The
     direct store write right after arming guarantees at least one
     latched failure even if the guard sheds the client writers within a
     sweep. The chaos worker arms the site itself, so the teardown owns
     its disarm. *)
  defer (fun () -> Rp_fault.disarm append_site);
  let chaos ~stop =
    let third = config.duration /. 3. in
    Unix.sleepf third;
    Rp_fault.arm ~seed:config.seed append_site
      ~trigger:(Rp_fault.Probability 1.0) ~action:Rp_fault.Raise;
    ignore (store_set store "chaos" "x");
    Unix.sleepf third;
    Rp_fault.disarm append_site;
    while not (Atomic.get stop) do
      Unix.sleepf 0.005
    done;
    0
  in
  let phase =
    run_phase config
      ~readers:
        (Array.init (max 1 config.readers)
           (resident_client_reader config o fx ~retries:2))
      ~writers:
        (Array.init (max 2 config.writers) (fun i ->
             shed_writer config o fx (i + 100)))
      ~extra:[| chaos |] ()
  in
  (* The ladder must have peaked at Emergency during the outage and must
     fully resolve once the window expires. *)
  require o (Rp_guard.peak_state guard = Rp_guard.Emergency);
  let recovered = await_healthy guard ~timeout:2.0 in
  (* Durability restored: a fresh mutation must ack and append. *)
  (try
     with_client fx.addr (fun c ->
         let before = Memcached.Persist.append_errors persist in
         require o (Memcached.Client.set c ~key:"post" ~data:"recovered" ());
         require o (Memcached.Persist.append_errors persist = before))
   with _ -> Atomic.incr o.wrong);
  {
    (base_report phase o) with
    faults_injected =
      phase.faults + Rp_fault.fires append_site
      + Memcached.Persist.append_errors persist;
    stalls_detected = Rp_guard.transitions guard;
    recoveries = Bool.to_int recovered;
    metrics = Rp_obs.Registry.to_stats (Memcached.Store.registry store);
  }

(* --- replication_divergence: kill -9 the leader mid-stream ---

   The one scenario that runs REAL processes: a leader memcached_server
   (--repl-port) and a follower (--replica-of) spawned as children.
   Writers drive the leader over TCP while tracking per-writer models;
   the follower attaches mid-load (exercising the catch-up -> live
   handoff), the scenario waits for the follower's acked watermark to
   meet the leader's sent watermark, then SIGKILLs the leader — no
   shutdown, no flush. The follower is promoted over the wire
   ([cluster promote]) and the promoted store must equal the union of
   the writer models exactly: every acked mutation survives, nothing
   resurrects. Finally a ring-aware client pointed at {dead leader,
   promoted follower} must eject the corpse and land a write on the
   survivor — the client-side half of the failover story. *)

(* The gate and the alcotest runner both live one directory over from
   bin/ in the build tree, so the relative fallback works for either;
   TORTURE_SERVER_BIN overrides for odd layouts. *)
let server_binary () =
  match Sys.getenv_opt "TORTURE_SERVER_BIN" with
  | Some path -> path
  | None ->
      Filename.concat
        (Filename.dirname Sys.executable_name)
        (Filename.concat ".." (Filename.concat "bin" "memcached_server.exe"))

type child = { pid : int; out : in_channel; mutable reaped : bool }

(* SIGKILL and reap, once: a reaped pid may already name an unrelated
   process. *)
let kill_child c =
  if not c.reaped then begin
    c.reaped <- true;
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
    close_in_noerr c.out
  end

(* A child server whose stdout the scenario reads; the teardown kills it
   unless the scenario already has. *)
let spawn_server ~defer bin args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let child = { pid; out = Unix.in_channel_of_descr r; reaped = false } in
  defer (fun () -> kill_child child);
  child

(* Children announce their kernel-picked ports on stdout
   ("replication listener on 127.0.0.1:P", "listening on 127.0.0.1:P"). *)
let await_port c ~prefix =
  let rec loop () =
    match input_line c.out with
    | line when String.starts_with ~prefix line -> (
        match String.rindex_opt line ':' with
        | Some i -> (
            match
              int_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
            with
            | Some p -> p
            | None -> loop ())
        | None -> loop ())
    | _ -> loop ()
    | exception End_of_file ->
        failwith
          ("replication_divergence: server exited before \"" ^ prefix ^ "\"")
  in
  loop ()

let run_replication_divergence config ~defer =
  let bin = server_binary () in
  if not (Sys.file_exists bin) then
    failwith
      ("replication_divergence: memcached_server binary not found at " ^ bin
     ^ " (set TORTURE_SERVER_BIN)");
  let leader_dir = scratch_dir ~defer "repl-leader"
  and follower_dir = scratch_dir ~defer "repl-follower" in
  (* fsync=never: leader durability is not under test — the oracle runs
     against the promoted follower's live table, and slow fsyncs would
     just eat the short budget. *)
  let common =
    [
      "-p"; "0"; "--snapshot-interval"; "0"; "--guard"; "false";
      "--fsync-policy"; "never"; "--trace-sample"; "1";
    ]
  in
  let leader =
    spawn_server ~defer bin
      ([ "--data-dir"; leader_dir; "--repl-port"; "0" ] @ common)
  in
  let repl_port = await_port leader ~prefix:"replication listener" in
  let leader_port = await_port leader ~prefix:"listening on" in
  let leader_addr = Memcached.Server.Tcp leader_port in
  let writers_n = max 1 config.writers and range = max 1 config.churn_keys in
  let key_name i j = Printf.sprintf "rk%d:%d" i j in
  (* The client is blocking request-response, so a model entry always
     reflects an acked mutation. *)
  let models = Array.init writers_n (fun _ -> Hashtbl.create 64) in
  let writer index ~stop =
    with_client leader_addr (fun c ->
        model_writer ~seed:(config.seed + 11) ~set_one_in:4 ~range ~key_name
          ~models ~data:stamp
          ~set:(fun key data -> Memcached.Client.set c ~key ~data ())
          ~delete:(Memcached.Client.delete c) index ~stop)
  in
  (* Background GETs keep the leader's read path busy while it streams. *)
  let reader index ~stop =
    with_client leader_addr (fun c ->
        range_reader config ~writers_n ~range
          ~get:(fun i j -> ignore (Memcached.Client.get c (key_name i j)))
          index ~stop)
  in
  (* Mid-load, the controller attaches the follower — so its catch-up
     cursor starts against a log that is still growing and the
     catch-up -> live-tap handoff happens under write traffic. *)
  let follower = ref None in
  let controller ~stop =
    Unix.sleepf (config.duration /. 3.);
    let child =
      spawn_server ~defer bin
        ([
           "--data-dir"; follower_dir;
           "--replica-of"; Printf.sprintf "127.0.0.1:%d" repl_port;
         ]
        @ common)
    in
    follower := Some (await_port child ~prefix:"listening on");
    while not (Atomic.get stop) do
      Unix.sleepf 0.005
    done;
    1
  in
  let phase =
    run_phase config
      ~readers:(Array.init config.readers reader)
      ~writers:(Array.init writers_n writer)
      ~extra:[| controller |] ()
  in
  let fport =
    match !follower with
    | Some port -> port
    | None -> failwith "replication_divergence: follower never attached"
  in
  let o = oracle () and recoveries = ref 0 in
  let stat stats name =
    match List.assoc_opt name stats with Some v -> v | None -> ""
  in
  (* Watermark: the leader's own `stats cluster` must show the follower
     caught up with acked_seq == sent_seq — the exact lines an operator
     would watch before trusting a failover. *)
  let leader_cluster = ref [] in
  with_client leader_addr (fun admin ->
      let caught_up () =
        let s = Memcached.Client.stats ~arg:"cluster" admin in
        leader_cluster := s;
        let sent = stat s "cluster_follower_0_sent_seq"
        and acked = stat s "cluster_follower_0_acked_seq" in
        stat s "cluster_follower_0_caught_up" = "1"
        && sent <> "" && sent <> "0" && sent = acked
      in
      let deadline = Unix.gettimeofday () +. 10. in
      while (not (caught_up ())) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.01
      done;
      require o (caught_up ()));
  (* The kill -9: the stream is live, the leader process simply stops
     existing. Nothing graceful runs — no flush, no close, no goodbye. *)
  kill_child leader;
  let follower_cluster =
    with_client (Memcached.Server.Tcp fport) (fun fc ->
        (* Still a replica: mutations must be refused until promotion. *)
        (match Memcached.Client.try_set fc ~key:"ro-probe" ~data:"x" () with
        | `Overloaded _ -> ()
        | `Stored | `Not_stored -> Atomic.incr o.wrong);
        (match Memcached.Client.promote fc with
        | Ok () -> incr recoveries
        | Error _ -> Atomic.incr o.wrong);
        (* The oracle: exact model equality against the promoted store. *)
        sweep o models ~get:(Memcached.Client.get fc) ~items:(fun () ->
            int_of_string_opt (stat (Memcached.Client.stats fc) "curr_items"));
        let cluster = Memcached.Client.stats ~arg:"cluster" fc in
        require o (stat cluster "cluster_role" = "promoted");
        cluster)
  in
  (* Client-side failover: a ring client spanning {dead leader, promoted
     follower} must eject the corpse and land the write regardless of
     which member owns the key. *)
  let ring =
    Memcached.Client.of_servers ~retries:3 ~eject_after:1
      [ ("127.0.0.1", leader_port, 1); ("127.0.0.1", fport, 1) ]
  in
  let failover_ok =
    (try Memcached.Client.set ring ~key:"failover:probe" ~data:"promoted" ()
     with _ -> false)
    &&
    match (try Memcached.Client.get ring "failover:probe" with _ -> None) with
    | Some v -> vdata v = "promoted"
    | None -> false
  in
  Memcached.Client.close ring;
  if failover_ok then incr recoveries else Atomic.incr o.wrong;
  (* Registry scrapes live in the dead children; keep instead the wire
     `stats cluster` lines (numeric ones — the report renders them bare
     as JSON) from both sides of the failover. *)
  let numeric prefix kvs =
    List.filter_map
      (fun (k, v) ->
        match float_of_string_opt v with
        | Some _ -> Some (prefix ^ k, v)
        | None -> None)
      kvs
  in
  {
    (base_report phase o) with
    faults_injected = 1;
    recoveries = !recoveries;
    metrics =
      numeric "leader_" !leader_cluster @ numeric "follower_" follower_cluster;
  }

(* --- the scenario table ---

   Every scenario with its body and whether it runs on the rp table only
   (all but [steady], which takes any table behind the TABLE signature). *)

let scenarios =
  [
    ("steady", run_steady, false);
    ("crash_resizer", run_crash_resizer, true);
    ("lazy_split_crash", run_lazy_split_crash, true);
    ("mixed_rw", run_mixed_rw, true);
    ("stalled_reader", run_stalled_reader, true);
    ("torn_io", run_torn_io, true);
    ("crash_recovery", run_crash_recovery, true);
    ("overload_storm", run_overload_storm, true);
    ("slow_client", run_slow_client, true);
    ("disk_full", run_disk_full, true);
    ("replication_divergence", run_replication_divergence, true);
    ("tier_crash", run_tier_crash, true);
  ]

let scenario_names = List.map (fun (name, _, _) -> name) scenarios

let rp_only_scenarios =
  List.filter_map
    (fun (name, _, rp_only) -> if rp_only then Some name else None)
    scenarios

let validate_config config =
  let body, rp_only =
    match List.find_opt (fun (name, _, _) -> name = config.scenario) scenarios with
    | Some (_, body, rp_only) -> (body, rp_only)
    | None -> invalid_arg ("Torture.run: unknown scenario " ^ config.scenario)
  in
  if config.duration <= 0.0 then invalid_arg "Torture.run: duration <= 0";
  if config.readers < 1 then invalid_arg "Torture.run: readers < 1";
  if config.writers < 0 || config.resizers < 0 then
    invalid_arg "Torture.run: negative worker count";
  if config.resident_keys < 1 then invalid_arg "Torture.run: no resident keys";
  if rp_only && config.table <> "rp" then
    invalid_arg
      ("Torture.run: scenario " ^ config.scenario ^ " runs on the rp table only");
  if config.table = "rp-fixed" && config.resizers > 0 then
    invalid_arg "Torture.run: rp-fixed cannot host resizers";
  if not (List.mem_assoc config.table tables) then
    invalid_arg ("Torture.run: unknown table " ^ config.table);
  body

let run config =
  let body = validate_config config in
  with_teardown (body config)
