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

let table_names = [ "rp"; "rp-qsbr"; "rp-fixed"; "ddds"; "rwlock"; "lock"; "xu" ]
let scenario_names =
  [
    "steady";
    "crash_resizer";
    "lazy_split_crash";
    "mixed_rw";
    "stalled_reader";
    "torn_io";
    "crash_recovery";
    "overload_storm";
    "slow_client";
    "disk_full";
    "replication_divergence";
    "tier_crash";
  ]

let table_of_name = function
  | "rp" -> (module Rp_baseline.Rp_table.Resizable : Rp_baseline.Table_intf.TABLE)
  | "rp-qsbr" -> (module Rp_baseline.Rp_table.Qsbr)
  | "rp-fixed" -> (module Rp_baseline.Rp_table.Fixed)
  | "ddds" -> (module Rp_baseline.Ddds_ht)
  | "rwlock" -> (module Rp_baseline.Rwlock_ht)
  | "lock" -> (module Rp_baseline.Lock_ht)
  | "xu" -> (module Rp_baseline.Xu_ht)
  | name -> invalid_arg ("Torture.run: unknown table " ^ name)

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

let validate_config config =
  if not (List.mem config.scenario scenario_names) then
    invalid_arg ("Torture.run: unknown scenario " ^ config.scenario);
  if config.duration <= 0.0 then invalid_arg "Torture.run: duration <= 0";
  if config.readers < 1 then invalid_arg "Torture.run: readers < 1";
  if config.writers < 0 || config.resizers < 0 then
    invalid_arg "Torture.run: negative worker count";
  if config.resident_keys < 1 then invalid_arg "Torture.run: no resident keys";
  if config.scenario <> "steady" && config.table <> "rp" then
    invalid_arg
      ("Torture.run: scenario " ^ config.scenario ^ " runs on the rp table only");
  if config.table = "rp-fixed" && config.resizers > 0 then
    invalid_arg "Torture.run: rp-fixed cannot host resizers";
  ignore (table_of_name config.table)

(* Sites armed (with [Yield]/[Delay]) when [fault_injection] is on, to
   stretch grace periods and shift interleavings without changing
   semantics. Disarmed — and only these — after the run. *)
let perturbation_sites =
  [
    ("rcu.synchronize.scan", Rp_fault.Probability 0.02, Rp_fault.Yield);
    ("rcu.call_rcu.enqueue", Rp_fault.Probability 0.02, Rp_fault.Yield);
    ("rp_ht.unzip.splice", Rp_fault.Probability 0.05, Rp_fault.Yield);
    ("rcu.synchronize.pre", Rp_fault.Probability 0.01, Rp_fault.Delay 5e-5);
  ]

let arm_perturbations seed =
  List.iter
    (fun (site, trigger, action) -> Rp_fault.arm ~seed site ~trigger ~action)
    perturbation_sites

let disarm_perturbations () =
  List.iter (fun (site, _, _) -> Rp_fault.disarm site) perturbation_sites

let perturbation_fires () =
  List.fold_left
    (fun acc (site, _, _) -> acc + Rp_fault.fires site)
    0 perturbation_sites

(* --- steady scenario: any table behind the TABLE signature --- *)

let run_steady config =
  let (module T : Rp_baseline.Table_intf.TABLE) = table_of_name config.table in
  let t =
    T.create ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal
      ~size:config.small_size ()
  in
  for k = 0 to config.resident_keys - 1 do
    T.insert t k (resident_value k)
  done;
  let missing = Atomic.make 0 in
  let wrong = Atomic.make 0 in
  let flips = Atomic.make 0 in
  let injected = Atomic.make 0 in
  let churn_base = config.resident_keys in

  if config.fault_injection then arm_perturbations config.seed;
  let maybe_fault prng =
    if config.fault_injection && Rp_workload.Prng.below prng 64 = 0 then begin
      Atomic.incr injected;
      Unix.sleepf (float_of_int (Rp_workload.Prng.below prng 1000) *. 1e-6)
    end
  in

  (* Oracle reader: resident keys must always be present and correct; churn
     keys may miss but must never carry a foreign value. *)
  let reader index ~stop =
    let prng = Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:config.seed) index in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let resident = Rp_workload.Prng.below prng 4 > 0 in
      if resident then begin
        let k = Rp_workload.Prng.below prng config.resident_keys in
        match T.find t k with
        | Some v when v = resident_value k -> ()
        | Some _ -> Atomic.incr wrong
        | None -> Atomic.incr missing
      end
      else if config.churn_keys > 0 then begin
        let k = churn_base + Rp_workload.Prng.below prng config.churn_keys in
        match T.find t k with
        | Some v when v = churn_value k -> ()
        | Some _ -> Atomic.incr wrong
        | None -> () (* legitimately absent *)
      end;
      incr checks
    done;
    T.reader_exit t;
    !checks
  in

  let writer index ~stop =
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:(config.seed + 7)) index
    in
    let ops = ref 0 in
    while (not (Atomic.get stop)) && config.churn_keys > 0 do
      let k = churn_base + Rp_workload.Prng.below prng config.churn_keys in
      if Rp_workload.Prng.bool prng then T.insert t k (churn_value k)
      else ignore (T.remove t k);
      maybe_fault prng;
      incr ops
    done;
    !ops
  in

  let resizer index ~stop =
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:(config.seed + 13)) index
    in
    while not (Atomic.get stop) do
      T.resize t config.large_size;
      T.resize t config.small_size;
      ignore (Atomic.fetch_and_add flips 2);
      maybe_fault prng
    done;
    0
  in

  let workers =
    Array.concat
      [
        Array.init config.readers (fun i ~stop -> reader i ~stop);
        Array.init config.writers (fun i ~stop -> writer i ~stop);
        Array.init config.resizers (fun i ~stop -> resizer i ~stop);
      ]
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> if config.fault_injection then disarm_perturbations ())
      (fun () -> Rp_harness.Runner.run ~duration:config.duration ~workers ())
  in
  let faults =
    Atomic.get injected
    + if config.fault_injection then perturbation_fires () else 0
  in
  let reader_checks =
    Array.fold_left ( + ) 0 (Array.sub outcome.per_worker_ops 0 config.readers)
  in
  let writer_ops =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops config.readers config.writers)
  in
  {
    reader_checks;
    missing_resident = Atomic.get missing;
    wrong_value = Atomic.get wrong;
    writer_ops;
    resize_flips = Atomic.get flips;
    faults_injected = faults;
    stalls_detected = 0;
    recoveries = 0;
    elapsed = outcome.elapsed;
    metrics = [];
  }

(* --- crash_resizer scenario: kill resizers mid-unzip, writers recover --- *)

let splice_site = "rp_ht.unzip.splice"

let run_crash_resizer config =
  let t =
    Rp_ht.create ~initial_size:config.small_size ~auto_resize:false
      ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  let reg = Rp_obs.Registry.create () in
  Rp_ht.observe t reg;
  Rcu.observe (Rp_ht.rcu t) reg;
  for k = 0 to config.resident_keys - 1 do
    Rp_ht.replace t k (resident_value k)
  done;
  let missing = Atomic.make 0 in
  let wrong = Atomic.make 0 in
  let flips = Atomic.make 0 in
  let churn_base = config.resident_keys in
  if config.fault_injection then arm_perturbations config.seed;
  (* Every splice evaluation may "crash" the resizer: the raise unwinds
     out of [Rp_ht.resize] leaving the interrupted unzip parked on the
     table (imprecise but complete). The next writer op completes it. *)
  Rp_fault.arm ~seed:config.seed splice_site
    ~trigger:(Rp_fault.Probability 0.02) ~action:Rp_fault.Raise;

  let reader index ~stop =
    let prng = Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:config.seed) index in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let resident = Rp_workload.Prng.below prng 4 > 0 in
      if resident then begin
        let k = Rp_workload.Prng.below prng config.resident_keys in
        match Rp_ht.find t k with
        | Some v when v = resident_value k -> ()
        | Some _ -> Atomic.incr wrong
        | None -> Atomic.incr missing
      end
      else if config.churn_keys > 0 then begin
        let k = churn_base + Rp_workload.Prng.below prng config.churn_keys in
        match Rp_ht.find t k with
        | Some v when v = churn_value k -> ()
        | Some _ -> Atomic.incr wrong
        | None -> ()
      end;
      incr checks
    done;
    !checks
  in

  let writer index ~stop =
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:(config.seed + 7)) index
    in
    let ops = ref 0 in
    while (not (Atomic.get stop)) && config.churn_keys > 0 do
      let k = churn_base + Rp_workload.Prng.below prng config.churn_keys in
      (* A writer completing a parked unzip walks the splice site too, so
         it can be "crashed" just like a resizer; the next op recovers. *)
      (try
         if Rp_workload.Prng.bool prng then Rp_ht.replace t k (churn_value k)
         else ignore (Rp_ht.remove t k)
       with Rp_fault.Injected _ -> ());
      incr ops
    done;
    !ops
  in

  let resizer _index ~stop =
    while not (Atomic.get stop) do
      (try
         Rp_ht.resize t config.large_size;
         Atomic.incr flips
       with Rp_fault.Injected _ -> ());
      (try
         Rp_ht.resize t config.small_size;
         Atomic.incr flips
       with Rp_fault.Injected _ -> ())
    done;
    0
  in

  let workers =
    Array.concat
      [
        Array.init config.readers (fun i ~stop -> reader i ~stop);
        Array.init config.writers (fun i ~stop -> writer i ~stop);
        Array.init (max 1 config.resizers) (fun i ~stop -> resizer i ~stop);
      ]
  in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Rp_fault.disarm splice_site;
        if config.fault_injection then disarm_perturbations ())
      (fun () -> Rp_harness.Runner.run ~duration:config.duration ~workers ())
  in
  let faults =
    Rp_fault.fires splice_site
    + if config.fault_injection then perturbation_fires () else 0
  in
  (* A plain writer op must complete its own bucket's parked split; the
     remaining cells are finished explicitly — only then is the quiescent
     table required to validate precisely with nothing pending. *)
  Rp_ht.replace t 0 (resident_value 0);
  Rp_ht.complete_splits t;
  let wrong_total =
    Atomic.get wrong
    + (if Rp_ht.recovery_pending t then 1 else 0)
    + (match Rp_ht.validate t with Ok () -> 0 | Error _ -> 1)
  in
  let reader_checks =
    Array.fold_left ( + ) 0 (Array.sub outcome.per_worker_ops 0 config.readers)
  in
  let writer_ops =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops config.readers config.writers)
  in
  {
    reader_checks;
    missing_resident = Atomic.get missing;
    wrong_value = wrong_total;
    writer_ops;
    resize_flips = Atomic.get flips;
    faults_injected = faults;
    stalls_detected = 0;
    recoveries = metric_int reg "rp_ht_recoveries_total";
    elapsed = outcome.elapsed;
    metrics = Rp_obs.Registry.to_stats reg;
  }

(* --- lazy_split_crash scenario: kill writers mid-lazy-split ---

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

let run_lazy_split_crash config =
  let t =
    Rp_ht.create ~initial_size:config.small_size ~min_size:config.small_size
      ~auto_resize:true ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  let reg = Rp_obs.Registry.create () in
  Rp_ht.observe t reg;
  Rcu.observe (Rp_ht.rcu t) reg;
  (* Seeding drives the first lazy expansions itself — before the kill
     sites go live. *)
  for k = 0 to config.resident_keys - 1 do
    Rp_ht.replace t k (resident_value k)
  done;
  let missing = Atomic.make 0 in
  let wrong = Atomic.make 0 in
  let flips = Atomic.make 0 in
  let churn_base = config.resident_keys in
  if config.fault_injection then arm_perturbations config.seed;
  Rp_fault.arm ~seed:config.seed lazy_site
    ~trigger:(Rp_fault.Probability 0.05) ~action:Rp_fault.Raise;
  Rp_fault.arm ~seed:(config.seed + 1) splice_site
    ~trigger:(Rp_fault.Probability 0.02) ~action:Rp_fault.Raise;

  let reader index ~stop =
    let prng = Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:config.seed) index in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let resident = Rp_workload.Prng.below prng 4 > 0 in
      if resident then begin
        let k = Rp_workload.Prng.below prng config.resident_keys in
        match Rp_ht.find t k with
        | Some v when v = resident_value k -> ()
        | Some _ -> Atomic.incr wrong
        | None -> Atomic.incr missing
      end
      else if config.churn_keys > 0 then begin
        let k = churn_base + Rp_workload.Prng.below prng config.churn_keys in
        match Rp_ht.find t k with
        | Some v when v = churn_value k -> ()
        | Some _ -> Atomic.incr wrong
        | None -> ()
      end;
      incr checks
    done;
    !checks
  in

  let writer index ~stop =
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:(config.seed + 7)) index
    in
    let ops = ref 0 in
    while (not (Atomic.get stop)) && config.churn_keys > 0 do
      let k = churn_base + Rp_workload.Prng.below prng config.churn_keys in
      (* Either kill site unwinds out of the op with the split parked
         (imprecise but complete); a later op on the bucket recovers. *)
      (try
         if Rp_workload.Prng.bool prng then Rp_ht.replace t k (churn_value k)
         else ignore (Rp_ht.remove t k)
       with Rp_fault.Injected _ -> ());
      incr ops
    done;
    !ops
  in

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

  let workers =
    Array.concat
      [
        Array.init config.readers (fun i ~stop -> reader i ~stop);
        Array.init (max 2 config.writers) (fun i ~stop -> writer i ~stop);
        [| (fun ~stop -> flipper ~stop) |];
      ]
  in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Rp_fault.disarm lazy_site;
        Rp_fault.disarm splice_site;
        if config.fault_injection then disarm_perturbations ())
      (fun () -> Rp_harness.Runner.run ~duration:config.duration ~workers ())
  in
  let faults =
    Rp_fault.fires lazy_site + Rp_fault.fires splice_site
    + if config.fault_injection then perturbation_fires () else 0
  in
  (* Settle every parked split, then demand a precise, recovery-free
     table — and that the lazy path actually ran (a zero lazy-split count
     would mean the scenario tortured nothing). *)
  Rp_ht.complete_splits t;
  let wrong_total =
    Atomic.get wrong
    + (if Rp_ht.recovery_pending t then 1 else 0)
    + (match Rp_ht.validate t with Ok () -> 0 | Error _ -> 1)
    + (if metric_int reg "rp_ht_lazy_splits_total" = 0 then 1 else 0)
  in
  let reader_checks =
    Array.fold_left ( + ) 0 (Array.sub outcome.per_worker_ops 0 config.readers)
  in
  let writer_ops =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops config.readers (max 2 config.writers))
  in
  {
    reader_checks;
    missing_resident = Atomic.get missing;
    wrong_value = wrong_total;
    writer_ops;
    resize_flips = Atomic.get flips;
    faults_injected = faults;
    stalls_detected = 0;
    recoveries = metric_int reg "rp_ht_recoveries_total";
    elapsed = outcome.elapsed;
    metrics = Rp_obs.Registry.to_stats reg;
  }

(* --- mixed_rw scenario: 50/50 GET/SET against the striped store ---

   The multi-writer proof at the store layer: N mixed workers each own a
   disjoint key range and run a 50/50 GET/SET [Opmix] against one Rp
   store, so independent stripes mutate concurrently while every GET in
   a worker's own range is checked against that worker's model — exact
   truth, since nothing else writes the range, the byte budget rules out
   eviction, and nothing expires. Cross-range readers verify that any
   value they see carries its owner's "i:j:" stamp (a foreign or torn
   value is detectable from the payload alone). The run ends with a full
   model-equality sweep plus an item-count resurrection check. *)

let run_mixed_rw config =
  let store =
    Memcached.Store.create ~backend:Memcached.Store.Rp
      ~max_bytes:(256 * 1024 * 1024) ()
  in
  let writers_n = max 4 config.writers in
  let range = max 1 config.churn_keys in
  let key_name i j = Printf.sprintf "mk%d:%d" i j in
  let models = Array.init writers_n (fun _ -> Hashtbl.create 64) in
  let missing = Atomic.make 0 in
  let wrong = Atomic.make 0 in
  if config.fault_injection then arm_perturbations config.seed;

  let mixed index ~stop =
    let model = models.(index) in
    let mix =
      Rp_workload.Opmix.create ~update_ratio:0.5 ~remove_share:0.0
        ~seed:config.seed ~worker:index ()
    in
    let prng =
      Rp_workload.Prng.split
        (Rp_workload.Prng.create ~seed:(config.seed + 7))
        index
    in
    let ops = ref 0 in
    while not (Atomic.get stop) do
      let j = Rp_workload.Prng.below prng range in
      let key = key_name index j in
      (match Rp_workload.Opmix.next mix with
      | Rp_workload.Opmix.Lookup -> (
          match (Memcached.Store.get store key, Hashtbl.find_opt model j) with
          | Some v, Some data when v.Memcached.Protocol.vdata = data -> ()
          | None, None -> ()
          | Some _, (Some _ | None) -> Atomic.incr wrong
          | None, Some _ -> Atomic.incr missing)
      | Rp_workload.Opmix.Insert | Rp_workload.Opmix.Remove -> (
          let data = Printf.sprintf "%d:%d:%d" index j !ops in
          match Memcached.Store.set store ~key ~flags:0 ~exptime:0 ~data with
          | Memcached.Store.Stored -> Hashtbl.replace model j data
          | _ -> Atomic.incr wrong));
      incr ops
    done;
    !ops
  in

  (* Cross-range readers can't know presence, but every value they do see
     must carry its owner's stamp. *)
  let reader index ~stop =
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:config.seed) index
    in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let i = Rp_workload.Prng.below prng writers_n in
      let j = Rp_workload.Prng.below prng range in
      (match Memcached.Store.get store (key_name i j) with
      | None -> ()
      | Some v ->
          let stamp = Printf.sprintf "%d:%d:" i j in
          if not (String.starts_with ~prefix:stamp v.Memcached.Protocol.vdata)
          then Atomic.incr wrong);
      incr checks
    done;
    !checks
  in

  let workers =
    Array.concat
      [
        Array.init config.readers (fun i ~stop -> reader i ~stop);
        Array.init writers_n (fun i ~stop -> mixed i ~stop);
      ]
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> if config.fault_injection then disarm_perturbations ())
      (fun () -> Rp_harness.Runner.run ~duration:config.duration ~workers ())
  in
  (* Final sweep: the store must equal the union of the models exactly —
     every acked SET visible, nothing lost, nothing invented. *)
  let checked = ref 0 and expected = ref 0 in
  Array.iteri
    (fun i model ->
      expected := !expected + Hashtbl.length model;
      Hashtbl.iter
        (fun j data ->
          incr checked;
          match Memcached.Store.get store (key_name i j) with
          | Some v when v.Memcached.Protocol.vdata = data -> ()
          | Some _ -> Atomic.incr wrong
          | None -> Atomic.incr missing)
        model)
    models;
  let extra = Memcached.Store.items store - !expected in
  if extra > 0 then Atomic.set wrong (Atomic.get wrong + extra);
  let structural =
    (* The point of the scenario is concurrent writers: striping must
       actually be on. *)
    if Memcached.Store.write_stripes store < 2 then 1 else 0
  in
  let reg = Memcached.Store.registry store in
  let reader_checks =
    !checked
    + Array.fold_left ( + ) 0 (Array.sub outcome.per_worker_ops 0 config.readers)
  in
  let writer_ops =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops config.readers writers_n)
  in
  {
    reader_checks;
    missing_resident = Atomic.get missing;
    wrong_value = Atomic.get wrong + structural;
    writer_ops;
    resize_flips = metric_int reg "rp_ht_lazy_splits_total";
    faults_injected =
      (if config.fault_injection then perturbation_fires () else 0);
    stalls_detected = 0;
    recoveries = metric_int reg "rp_ht_recoveries_total";
    elapsed = outcome.elapsed;
    metrics = Rp_obs.Registry.to_stats reg;
  }

(* --- stalled_reader scenario: park a reader, catch it with the watchdog --- *)

let run_stalled_reader config =
  let t =
    Rp_ht.create ~initial_size:config.small_size ~auto_resize:false
      ~hash:Rp_hashes.Hashfn.of_int ~equal:Int.equal ()
  in
  let rcu = Rp_ht.rcu t in
  let reg = Rp_obs.Registry.create () in
  Rp_ht.observe t reg;
  Rcu.observe rcu reg;
  let budget = 0.02 in
  Rcu.set_stall_budget rcu (Some budget);
  let handler_calls = Atomic.make 0 in
  Rcu.set_stall_handler rcu (Some (fun _report -> Atomic.incr handler_calls));
  for k = 0 to config.resident_keys - 1 do
    Rp_ht.replace t k (resident_value k)
  done;
  let missing = Atomic.make 0 in
  let wrong = Atomic.make 0 in
  let flips = Atomic.make 0 in
  let churn_base = config.resident_keys in
  if config.fault_injection then arm_perturbations config.seed;

  let reader index ~stop =
    let prng = Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:config.seed) index in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let k = Rp_workload.Prng.below prng config.resident_keys in
      (match Rp_ht.find t k with
      | Some v when v = resident_value k -> ()
      | Some _ -> Atomic.incr wrong
      | None -> Atomic.incr missing);
      incr checks
    done;
    !checks
  in

  let writer index ~stop =
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:(config.seed + 7)) index
    in
    let ops = ref 0 in
    while (not (Atomic.get stop)) && config.churn_keys > 0 do
      let k = churn_base + Rp_workload.Prng.below prng config.churn_keys in
      if Rp_workload.Prng.bool prng then Rp_ht.replace t k (churn_value k)
      else ignore (Rp_ht.remove t k);
      incr ops
    done;
    !ops
  in

  let resizer _index ~stop =
    while not (Atomic.get stop) do
      Rp_ht.resize t config.large_size;
      Rp_ht.resize t config.small_size;
      ignore (Atomic.fetch_and_add flips 2)
    done;
    0
  in

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

  let workers =
    Array.concat
      [
        Array.init config.readers (fun i ~stop -> reader i ~stop);
        Array.init config.writers (fun i ~stop -> writer i ~stop);
        Array.init (max 1 config.resizers) (fun i ~stop -> resizer i ~stop);
        [| (fun ~stop -> parker ~stop) |];
      ]
  in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        if config.fault_injection then disarm_perturbations ();
        Rcu.set_stall_handler rcu None;
        Rcu.set_stall_budget rcu None)
      (fun () -> Rp_harness.Runner.run ~duration:config.duration ~workers ())
  in
  let parks = outcome.per_worker_ops.(Array.length workers - 1) in
  let reader_checks =
    Array.fold_left ( + ) 0 (Array.sub outcome.per_worker_ops 0 config.readers)
  in
  let writer_ops =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops config.readers config.writers)
  in
  {
    reader_checks;
    missing_resident = Atomic.get missing;
    wrong_value = Atomic.get wrong;
    writer_ops;
    resize_flips = Atomic.get flips;
    faults_injected =
      (parks + if config.fault_injection then perturbation_fires () else 0);
    stalls_detected = metric_int reg "rcu_stalls_total";
    recoveries = metric_int reg "rp_ht_recoveries_total";
    elapsed = outcome.elapsed;
    metrics = Rp_obs.Registry.to_stats reg;
  }

(* --- torn_io scenario: memcached over a torn-up socket --- *)

let torn_sites =
  [
    ("server.read.split", Rp_fault.Probability 0.25, Rp_fault.Truncate_io 5);
    ("server.write.partial", Rp_fault.Probability 0.25, Rp_fault.Truncate_io 7);
    ("client.write.partial", Rp_fault.Probability 0.25, Rp_fault.Truncate_io 7);
    ("server.conn.reset", Rp_fault.Probability 0.02, Rp_fault.Raise);
  ]

let run_torn_io config =
  let store = Memcached.Store.create ~backend:Memcached.Store.Rp () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-torture-%d.sock" (Unix.getpid ()))
  in
  let addr = Memcached.Server.Unix_socket path in
  let server = Memcached.Server.start ~store addr in
  let key_name k = "tk" ^ string_of_int k in
  let missing = Atomic.make 0 in
  let wrong = Atomic.make 0 in
  let churn_base = config.resident_keys in
  (* Seed resident keys over clean I/O, then tear the transport up. *)
  let seeder = Memcached.Client.connect ~retries:4 addr in
  for k = 0 to config.resident_keys - 1 do
    if
      not
        (Memcached.Client.set seeder ~key:(key_name k)
           ~data:(string_of_int (resident_value k))
           ())
    then Atomic.incr missing
  done;
  Memcached.Client.close seeder;
  if config.fault_injection then arm_perturbations config.seed;
  List.iter
    (fun (site, trigger, action) ->
      Rp_fault.arm ~seed:config.seed site ~trigger ~action)
    torn_sites;

  let fresh_client () = Memcached.Client.connect ~retries:8 addr in
  let transient = function
    | Memcached.Client.Disconnected _ | Unix.Unix_error _ | End_of_file
    | Failure _ ->
        true
    | _ -> false
  in
  let client_worker role index ~stop =
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:(config.seed + 31)) index
    in
    let c = ref (fresh_client ()) in
    let ops = ref 0 in
    while not (Atomic.get stop) do
      (try
         match role with
         | `Get ->
             let k = Rp_workload.Prng.below prng config.resident_keys in
             (match Memcached.Client.get !c (key_name k) with
             | Some v when v.Memcached.Protocol.vdata = string_of_int (resident_value k)
               ->
                 ()
             | Some _ -> Atomic.incr wrong
             | None -> Atomic.incr missing)
         | `Set ->
             let k =
               churn_base + Rp_workload.Prng.below prng (max 1 config.churn_keys)
             in
             if Rp_workload.Prng.bool prng then
               ignore
                 (Memcached.Client.set !c ~key:(key_name k)
                    ~data:(string_of_int (churn_value k))
                    ())
             else (
               match Memcached.Client.get !c (key_name k) with
               | Some v
                 when v.Memcached.Protocol.vdata = string_of_int (churn_value k) ->
                   ()
               | Some _ -> Atomic.incr wrong
               | None -> ())
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

  let workers =
    Array.concat
      [
        Array.init config.readers (fun i ~stop -> client_worker `Get i ~stop);
        Array.init (max 1 config.writers) (fun i ~stop ->
            client_worker `Set (i + 100) ~stop);
      ]
  in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun (site, _, _) -> Rp_fault.disarm site) torn_sites;
        if config.fault_injection then disarm_perturbations ();
        Memcached.Server.stop server)
      (fun () -> Rp_harness.Runner.run ~duration:config.duration ~workers ())
  in
  let faults =
    List.fold_left (fun acc (site, _, _) -> acc + Rp_fault.fires site) 0 torn_sites
    + if config.fault_injection then perturbation_fires () else 0
  in
  let reader_checks =
    Array.fold_left ( + ) 0 (Array.sub outcome.per_worker_ops 0 config.readers)
  in
  let writer_ops =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops config.readers
         (Array.length workers - config.readers))
  in
  {
    reader_checks;
    missing_resident = Atomic.get missing;
    wrong_value = Atomic.get wrong;
    writer_ops;
    resize_flips = 0;
    faults_injected = faults;
    stalls_detected = 0;
    recoveries = 0;
    elapsed = outcome.elapsed;
    metrics = Rp_obs.Registry.to_stats (Memcached.Store.registry store);
  }

(* --- crash_recovery scenario: kill -9 mid-snapshot, warm-restart, diff ---

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

let run_crash_recovery config =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-torture-persist-%d" (Unix.getpid ()))
  in
  (* Stale files from a previous crashed run would pollute recovery. *)
  if Sys.file_exists dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
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
  if config.fault_injection then arm_perturbations config.seed;
  let key_name i j = Printf.sprintf "pk%d:%d" i j in
  let range = max 1 config.churn_keys in
  let writers_n = max 1 config.writers in
  (* Per-writer models: each writer owns its range, so a plain Hashtbl per
     writer (touched only by that writer until the join) is race-free. *)
  let models = Array.init writers_n (fun _ -> Hashtbl.create 64) in
  let snapshots_ok = Atomic.make 0 in

  let writer index ~stop =
    let model = models.(index) in
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:(config.seed + 7)) index
    in
    let ops = ref 0 in
    while not (Atomic.get stop) do
      let j = Rp_workload.Prng.below prng range in
      let key = key_name index j in
      if Rp_workload.Prng.below prng 4 > 0 then begin
        let data = Printf.sprintf "%d:%d:%d" index j !ops in
        match
          Memcached.Store.set store ~key ~flags:0 ~exptime:0 ~data
        with
        | Memcached.Store.Stored -> Hashtbl.replace model key data
        | _ -> ()
      end
      else begin
        (* Acked either way: afterwards the key is durably absent. *)
        ignore (Memcached.Store.delete store key);
        Hashtbl.remove model key
      end;
      incr ops
    done;
    !ops
  in

  (* Background reads keep the relativistic fast path busy while the
     snapshot walk shares its read sections with them. *)
  let reader index ~stop =
    let prng = Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:config.seed) index in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let i = Rp_workload.Prng.below prng writers_n in
      let j = Rp_workload.Prng.below prng range in
      ignore (Memcached.Store.get store (key_name i j));
      incr checks
    done;
    !checks
  in

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

  let workers =
    Array.concat
      [
        Array.init config.readers (fun i ~stop -> reader i ~stop);
        Array.init writers_n (fun i ~stop -> writer i ~stop);
        [| (fun ~stop -> snapshotter ~stop) |];
      ]
  in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        if config.fault_injection then disarm_perturbations ())
      (fun () -> Rp_harness.Runner.run ~duration:config.duration ~workers ())
  in

  (* Stage the kill -9: crash the next snapshot mid-walk (after the op log
     has already rotated — the window where a real death loses the
     in-flight snapshot but must lose nothing else)... *)
  Rp_fault.arm ~seed:config.seed snapshot_record_site
    ~trigger:(Rp_fault.Every 10) ~action:Rp_fault.Raise;
  let crash_failed_snapshot =
    match Memcached.Persist.snapshot_now persist with
    | Error _ -> 1
    | Ok _ -> 0 (* tiny table: walk ended before the 10th record *)
  in
  Rp_fault.disarm snapshot_record_site;
  (* ...kill the manager with no graceful sync or close... *)
  Memcached.Persist.crash_for_testing persist;
  (* ...and leave a torn half-written record at the newest segment's tail,
     as the interrupted append of a dying process would. *)
  let torn_bytes =
    match List.rev (Rp_persist.Oplog.segments ~dir) with
    | [] -> 0
    | (_, path) :: _ ->
        let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
        let garbage = "\x00\x00\x40\x00torn!" in
        let n = Unix.write_substring fd garbage 0 (String.length garbage) in
        Unix.close fd;
        n
  in

  (* Warm restart into a fresh store; recovery must reassemble the exact
     durable state. *)
  let store2 = make_store () in
  let persist2 = Memcached.Persist.attach ~aof:true ~dir store2 in
  let recovery = Memcached.Persist.recovery persist2 in
  let missing = ref 0 and wrong = ref 0 and checked = ref 0 in
  let expected = ref 0 in
  Array.iter
    (fun model ->
      expected := !expected + Hashtbl.length model;
      Hashtbl.iter
        (fun key data ->
          incr checked;
          match Memcached.Store.get store2 key with
          | Some v when v.Memcached.Protocol.vdata = data -> ()
          | Some _ -> incr wrong
          | None -> incr missing)
        model)
    models;
  (* No resurrections either: the recovered store holds exactly the model
     keys (every extra item counts as a wrong value). *)
  let extra = Memcached.Store.items store2 - !expected + !missing in
  if extra > 0 then wrong := !wrong + extra;
  let metrics =
    List.filter
      (fun (name, _) ->
        String.length name < 18 || String.sub name 0 18 <> "persist_recovered_")
      (Option.get (Memcached.Store.stats_section store "persist"))
    @ List.filter
        (fun (name, _) ->
          String.length name >= 18 && String.sub name 0 18 = "persist_recovered_")
        (Option.get (Memcached.Store.stats_section store2 "persist"))
  in
  Memcached.Persist.stop persist2;
  let reader_checks =
    !checked
    + Array.fold_left ( + ) 0 (Array.sub outcome.per_worker_ops 0 config.readers)
  in
  let writer_ops =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops config.readers writers_n)
  in
  {
    reader_checks;
    missing_resident = !missing;
    wrong_value =
      !wrong
      + (if recovery.Memcached.Persist.log_truncated_bytes < torn_bytes then 1
         else 0);
    writer_ops;
    resize_flips = 0;
    faults_injected =
      Rp_fault.fires snapshot_record_site
      + crash_failed_snapshot + (if torn_bytes > 0 then 1 else 0)
      + (if config.fault_injection then perturbation_fires () else 0);
    stalls_detected = 0;
    (* "recoveries" here = durable recovery points exercised: snapshots
       published during the run, plus the warm restart itself. *)
    recoveries = Atomic.get snapshots_ok + 1;
    elapsed = outcome.elapsed;
    metrics;
  }

(* --- tier_crash scenario: SIGKILL mid-demotion and mid-compaction ---

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

let run_tier_crash config =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-torture-tier-%d" (Unix.getpid ()))
  in
  let data_dir = Filename.concat root "data" in
  let tier_dir = Filename.concat root "tier" in
  List.iter
    (fun d ->
      if Sys.file_exists d then
        Array.iter
          (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
          (Sys.readdir d))
    [ data_dir; tier_dir ];
  let range = max 1 config.churn_keys in
  let writers_n = max 1 config.writers in
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
    | Ok t -> t
    | Error m -> failwith ("tier_crash: tier attach failed: " ^ m)
  in
  let store = make_store () in
  let tier = attach_tier store in
  let persist =
    Memcached.Persist.attach ~aof:true ~fsync:Rp_persist.Oplog.Always
      ~dir:data_dir store
  in
  ignore (Memcached.Tier.finish_recovery tier);
  if config.fault_injection then begin
    arm_perturbations config.seed;
    (* Mid-demotion kills: every few segment appends dies half-written.
       The demote must fail closed (plain eviction), never take the
       writer thread with it. Reads get torn frames now and then; a torn
       frame drops the marker — the value is still in the op log. *)
    Rp_fault.arm ~seed:config.seed Rp_tier.append_site
      ~trigger:(Rp_fault.Every 7) ~action:Rp_fault.Raise;
    Rp_fault.arm ~seed:config.seed Rp_tier.read_torn_site
      ~trigger:(Rp_fault.Probability 0.02) ~action:Rp_fault.Raise
  end;

  let key_name i j = Printf.sprintf "tk%d:%d" i j in
  let models = Array.init writers_n (fun _ -> Hashtbl.create 64) in
  let writer index ~stop =
    let model = models.(index) in
    let prng =
      Rp_workload.Prng.split
        (Rp_workload.Prng.create ~seed:(config.seed + 11))
        index
    in
    let size_span = max 1 (config.large_size - config.small_size) in
    let ops = ref 0 in
    while not (Atomic.get stop) do
      let j = Rp_workload.Prng.below prng range in
      let key = key_name index j in
      if Rp_workload.Prng.below prng 5 > 0 then begin
        let body =
          String.make
            (config.small_size + Rp_workload.Prng.below prng size_span)
            'v'
        in
        let data = Printf.sprintf "%d:%d:%d:%s" index j !ops body in
        match Memcached.Store.set store ~key ~flags:0 ~exptime:0 ~data with
        | Memcached.Store.Stored -> Hashtbl.replace model key data
        | _ -> ()
      end
      else begin
        ignore (Memcached.Store.delete store key);
        Hashtbl.remove model key
      end;
      incr ops
    done;
    !ops
  in
  (* Readers hammer the promote path: most of the range is demoted, so a
     random GET is usually a cold hit — disk read, stripe reinsert, and
     the sweep demoting something else to make room. *)
  let reader index ~stop =
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:config.seed) index
    in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let i = Rp_workload.Prng.below prng writers_n in
      let j = Rp_workload.Prng.below prng range in
      ignore (Memcached.Store.get store (key_name i j));
      incr checks
    done;
    !checks
  in
  let workers =
    Array.concat
      [
        Array.init config.readers (fun i ~stop -> reader i ~stop);
        Array.init writers_n (fun i ~stop -> writer i ~stop);
      ]
  in
  let outcome = Rp_harness.Runner.run ~duration:config.duration ~workers () in
  Rp_fault.disarm Rp_tier.read_torn_site;
  Rp_fault.disarm Rp_tier.append_site;
  if config.fault_injection then disarm_perturbations ();
  (* Re-arming a site resets its fire count: bank the run phase's now. *)
  let run_fires =
    Rp_fault.fires Rp_tier.append_site + Rp_fault.fires Rp_tier.read_torn_site
  in

  (* Make a compaction candidate (a mostly-dead sealed segment): delete a
     slice of currently-cold keys, then kill the compactor's relocation
     appends mid-copy. Skipped copies must leave the old frames live and
     readable — the crash lands before compaction gets another shot. *)
  Array.iteri
    (fun i model ->
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
          Hashtbl.remove models.(i) key)
        doomed)
    models;
  Rp_fault.arm ~seed:config.seed Rp_tier.append_site
    ~trigger:Rp_fault.Always ~action:Rp_fault.Raise;
  let killed_compaction = Memcached.Tier.compact_once tier in
  ignore killed_compaction;
  Rp_fault.disarm Rp_tier.append_site;
  let fault_fires = run_fires + Rp_fault.fires Rp_tier.append_site in

  (* The kill -9: no graceful sync, a torn half-record at the log tail,
     the tier abandoned mid-flight (its segments stay as they fell). *)
  Memcached.Persist.crash_for_testing persist;
  let torn_bytes =
    match List.rev (Rp_persist.Oplog.segments ~dir:data_dir) with
    | [] -> 0
    | (_, path) :: _ ->
        let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
        let garbage = "\x00\x00\x40\x00torn!" in
        let n = Unix.write_substring fd garbage 0 (String.length garbage) in
        Unix.close fd;
        n
  in
  Memcached.Tier.stop tier;

  (* Warm restart, both planes re-attached in the two-phase order. The
     post-recovery sweep demotes the overflow through the fresh tier, so
     the oracle walk below exercises real cold reads, not just RAM. *)
  let store2 = make_store () in
  let tier2 = attach_tier store2 in
  let persist2 = Memcached.Persist.attach ~aof:true ~dir:data_dir store2 in
  let recovery = Memcached.Persist.recovery persist2 in
  let dropped_segments = Memcached.Tier.finish_recovery tier2 in
  let missing = ref 0 and wrong = ref 0 and checked = ref 0 in
  let expected = ref 0 in
  Array.iter
    (fun model ->
      expected := !expected + Hashtbl.length model;
      Hashtbl.iter
        (fun key data ->
          incr checked;
          match Memcached.Store.get store2 key with
          | Some v when v.Memcached.Protocol.vdata = data -> ()
          | Some _ -> incr wrong
          | None -> incr missing)
        model)
    models;
  let extra = Memcached.Store.items store2 - !expected + !missing in
  if extra > 0 then wrong := !wrong + extra;
  (* The restart must actually have exercised the tier: demotions from
     the post-recovery sweep, promotions from the oracle's cold GETs. *)
  let demotions2 = Memcached.Store.tier_demotions store2 in
  let promotions2 = Memcached.Store.tier_promotions store2 in
  let metrics =
    ("tier_recovery_dropped_segments", string_of_int dropped_segments)
    :: Rp_obs.Registry.to_stats (Memcached.Store.registry store2)
  in
  Memcached.Persist.stop persist2;
  Memcached.Tier.stop tier2;
  let reader_checks =
    !checked
    + Array.fold_left ( + ) 0 (Array.sub outcome.per_worker_ops 0 config.readers)
  in
  let writer_ops =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops config.readers writers_n)
  in
  {
    reader_checks;
    missing_resident = !missing;
    wrong_value =
      !wrong
      + (if recovery.Memcached.Persist.log_truncated_bytes < torn_bytes then 1
         else 0);
    writer_ops;
    resize_flips = 0;
    faults_injected =
      fault_fires
      + (if torn_bytes > 0 then 1 else 0)
      + (if config.fault_injection then perturbation_fires () else 0);
    (* A restart that never demoted or never promoted proves nothing —
       surface it as a stall so the gate fails loudly. *)
    stalls_detected = (if demotions2 = 0 || promotions2 = 0 then 1 else 0);
    recoveries = 1;
    elapsed = outcome.elapsed;
    metrics;
  }

(* --- overload_storm scenario: flood of mutations against the guard ---

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

let run_overload_storm config =
  let store = Memcached.Store.create ~backend:Memcached.Store.Rp () in
  let guard = Memcached.Guard.install ~interval:0.01 store in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-torture-storm-%d.sock" (Unix.getpid ()))
  in
  let addr = Memcached.Server.Unix_socket path in
  let readers_n = max 1 config.readers in
  let storm_n = max 6 config.writers in
  (* Size admission so the steady connection count sits inside the Shed
     band: total/(total+1) is >= 0.85 from 7 connections up and stays
     below the Emergency rung until ~19. *)
  let server_config =
    {
      Memcached.Server.default_config with
      max_inflight = readers_n + storm_n + 1;
    }
  in
  let server = Memcached.Server.start ~store ~config:server_config addr in
  Memcached.Guard.watch_server guard server;
  let key_name k = "sk" ^ string_of_int k in
  let missing = Atomic.make 0 in
  let wrong = Atomic.make 0 in
  let stored = Atomic.make 0 in
  let shed_seen = Atomic.make 0 in
  (* Seed the oracle keys before the sweeper starts: mutations are still
     admitted while the guard sleeps. *)
  let seeder = Memcached.Client.connect ~retries:4 addr in
  for k = 0 to config.resident_keys - 1 do
    if
      not
        (Memcached.Client.set seeder ~key:(key_name k)
           ~data:(string_of_int (resident_value k))
           ())
    then Atomic.incr missing
  done;
  Memcached.Client.close seeder;
  if config.fault_injection then arm_perturbations config.seed;
  Rp_guard.start guard;

  (* Oracle: under full shed, reads must stay exact — never an error,
     never a stale or missing resident. *)
  let reader index ~stop =
    let prng = Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:config.seed) index in
    let c = Memcached.Client.connect ~retries:2 addr in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let k = Rp_workload.Prng.below prng config.resident_keys in
      (match Memcached.Client.get c (key_name k) with
      | Some v when v.Memcached.Protocol.vdata = string_of_int (resident_value k)
        ->
          ()
      | Some _ -> Atomic.incr wrong
      | None -> Atomic.incr missing
      | exception _ -> Atomic.incr wrong);
      incr checks
    done;
    Memcached.Client.close c;
    !checks
  in

  (* Storm: hammer mutations on a persistent connection; a shed reply is
     the expected outcome, an exception is a failure. *)
  let storm index ~stop =
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:(config.seed + 7)) index
    in
    let c = Memcached.Client.connect ~retries:2 addr in
    let ops = ref 0 in
    while not (Atomic.get stop) do
      let k =
        config.resident_keys
        + Rp_workload.Prng.below prng (max 1 config.churn_keys)
      in
      (match
         Memcached.Client.try_set c ~key:(key_name k)
           ~data:(string_of_int (churn_value k))
           ()
       with
      | `Stored -> Atomic.incr stored
      | `Overloaded _ -> Atomic.incr shed_seen
      | `Not_stored -> ()
      | exception _ -> Atomic.incr wrong);
      incr ops
    done;
    Memcached.Client.close c;
    !ops
  in

  let workers =
    Array.concat
      [
        Array.init readers_n (fun i ~stop -> reader i ~stop);
        Array.init storm_n (fun i ~stop -> storm (i + 100) ~stop);
      ]
  in
  let structural = ref 0 in
  let recovered = ref false in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        if config.fault_injection then disarm_perturbations ();
        (* Storm gone, connections closed: the ladder must resolve back
           to Healthy within a few sweep intervals. *)
        recovered := await_healthy guard ~timeout:2.0;
        (* The incident must be legible from the outside: live [stats
           guard] lines over the wire, and the state transitions as
           control-tier events in the trace export. *)
        (try
           let c = Memcached.Client.connect ~retries:4 addr in
           let kvs = Memcached.Client.stats ~arg:"guard" c in
           Memcached.Client.close c;
           if not (List.mem_assoc "guard_state_name" kvs) then incr structural;
           if not (List.mem_assoc "guard_shed_total" kvs) then incr structural
         with _ -> structural := !structural + 2);
        if
          not
            (contains_substring (Rp_trace.export_json ()) "guard.state")
        then incr structural;
        Rp_guard.stop guard;
        Memcached.Server.stop server)
      (fun () -> Rp_harness.Runner.run ~duration:config.duration ~workers ())
  in
  let reader_checks =
    Array.fold_left ( + ) 0 (Array.sub outcome.per_worker_ops 0 readers_n)
  in
  let writer_ops =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops readers_n storm_n)
  in
  {
    reader_checks;
    missing_resident = Atomic.get missing;
    wrong_value = Atomic.get wrong + !structural;
    writer_ops;
    resize_flips = 0;
    faults_injected =
      Rp_guard.shed_total guard
      + (if config.fault_injection then perturbation_fires () else 0);
    stalls_detected = Rp_guard.transitions guard;
    recoveries = (if !recovered then 1 else 0);
    elapsed = outcome.elapsed;
    metrics = Rp_obs.Registry.to_stats (Memcached.Store.registry store);
  }

(* --- slow_client scenario: one non-draining socket vs the event loop ---

   A victim connection pipelines GETs of a 4 KiB value and never reads a
   byte back. The event-loop plane must park its pipeline at the
   per-connection write cap (bounded coalescer memory), stop reading
   from it, and — once it makes no progress for a whole drain deadline —
   kill it, while a well-behaved client on the same worker keeps
   streaming verified GETs the entire time. *)

let run_slow_client config =
  let store =
    Memcached.Store.create ~backend:Memcached.Store.Rp
      ~rcu_mode:Memcached.Store.Qsbr ()
  in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-torture-slow-%d.sock" (Unix.getpid ()))
  in
  let addr = Memcached.Server.Unix_socket path in
  let server_config =
    {
      Memcached.Server.default_config with
      workers = 1;
      conn_write_cap = 8192;
      drain_deadline = Float.min 0.05 (config.duration /. 2.);
    }
  in
  let server = Memcached.Server.start ~store ~config:server_config addr in
  let key_name k = "wk" ^ string_of_int k in
  let big = String.make 4096 'x' in
  let missing = Atomic.make 0 in
  let wrong = Atomic.make 0 in
  let victim_killed = Atomic.make 0 in
  let seeder = Memcached.Client.connect ~retries:4 addr in
  ignore (Memcached.Client.set seeder ~key:"big" ~data:big ());
  for k = 0 to config.resident_keys - 1 do
    if
      not
        (Memcached.Client.set seeder ~key:(key_name k)
           ~data:(string_of_int (resident_value k))
           ())
    then Atomic.incr missing
  done;
  Memcached.Client.close seeder;
  if config.fault_injection then arm_perturbations config.seed;

  let reader index ~stop =
    let prng = Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:config.seed) index in
    let c = Memcached.Client.connect ~retries:4 addr in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let k = Rp_workload.Prng.below prng config.resident_keys in
      (match Memcached.Client.get c (key_name k) with
      | Some v when v.Memcached.Protocol.vdata = string_of_int (resident_value k)
        ->
          ()
      | Some _ -> Atomic.incr wrong
      | None -> Atomic.incr missing
      | exception _ -> Atomic.incr wrong);
      incr checks
    done;
    Memcached.Client.close c;
    !checks
  in

  (* The abuser: pipeline big GETs as fast as the socket accepts and
     never read a response. A tiny receive buffer makes the kernel stop
     accepting server bytes almost immediately, so the server's write
     cap and drain deadline do the rest. *)
  let victim ~stop =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.setsockopt_int fd Unix.SO_RCVBUF 4096
     with Unix.Unix_error _ -> ());
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | exception _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        0
    | () ->
        Unix.set_nonblock fd;
        let req = Bytes.of_string (String.concat "" (List.init 64 (fun _ -> "get big\r\n"))) in
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

  let workers =
    Array.concat
      [
        Array.init (max 1 config.readers) (fun i ~stop -> reader i ~stop);
        [| (fun ~stop -> victim ~stop) |];
      ]
  in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        if config.fault_injection then disarm_perturbations ();
        Memcached.Server.stop server)
      (fun () -> Rp_harness.Runner.run ~duration:config.duration ~workers ())
  in
  let reg = Memcached.Store.registry store in
  let kills = metric_int reg "guard_slow_client_kills_total" in
  let reader_checks =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops 0 (max 1 config.readers))
  in
  {
    reader_checks;
    missing_resident = Atomic.get missing;
    (* A zero kill count means the defense never fired: structural
       failure, not just a missing stat. *)
    wrong_value = (Atomic.get wrong + if kills = 0 then 1 else 0);
    writer_ops = outcome.per_worker_ops.(Array.length workers - 1);
    resize_flips = 0;
    faults_injected =
      (kills + if config.fault_injection then perturbation_fires () else 0);
    stalls_detected = 0;
    recoveries = Atomic.get victim_killed;
    elapsed = outcome.elapsed;
    metrics = Rp_obs.Registry.to_stats reg;
  }

(* --- disk_full scenario: op-log appends start failing mid-run ---

   Writers stream mutations into a persisted store while a chaos worker
   arms the ["persist.log.append"] failpoint mid-run. Appends fail, the
   disk source latches Emergency-level pressure, and the guard must
   degrade — mutations shed, snapshots paused, GETs still exact — then
   walk back to Healthy once the failpoint is disarmed and the error
   window expires, at which point a fresh mutation must succeed and log
   durably again. *)

let append_site = "persist.log.append"

let run_disk_full config =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-torture-diskfull-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
  let store =
    Memcached.Store.create ~backend:Memcached.Store.Rp
      ~max_bytes:(256 * 1024 * 1024) ()
  in
  let guard = Memcached.Guard.install ~interval:0.01 store in
  let persist =
    Memcached.Persist.attach ~aof:true ~fsync:Rp_persist.Oplog.Always ~dir
      store
  in
  Memcached.Guard.watch_persist guard ~error_window:0.05 persist;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-torture-diskfull-%d.sock" (Unix.getpid ()))
  in
  let addr = Memcached.Server.Unix_socket path in
  let server = Memcached.Server.start ~store addr in
  Memcached.Guard.watch_server guard server;
  let key_name k = "dk" ^ string_of_int k in
  let missing = Atomic.make 0 in
  let wrong = Atomic.make 0 in
  let shed_seen = Atomic.make 0 in
  let seeder = Memcached.Client.connect ~retries:4 addr in
  for k = 0 to config.resident_keys - 1 do
    if
      not
        (Memcached.Client.set seeder ~key:(key_name k)
           ~data:(string_of_int (resident_value k))
           ())
    then Atomic.incr missing
  done;
  Memcached.Client.close seeder;
  if config.fault_injection then arm_perturbations config.seed;
  Rp_guard.start guard;

  let reader index ~stop =
    let prng = Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:config.seed) index in
    let c = Memcached.Client.connect ~retries:2 addr in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let k = Rp_workload.Prng.below prng config.resident_keys in
      (match Memcached.Client.get c (key_name k) with
      | Some v when v.Memcached.Protocol.vdata = string_of_int (resident_value k)
        ->
          ()
      | Some _ -> Atomic.incr wrong
      | None -> Atomic.incr missing
      | exception _ -> Atomic.incr wrong);
      incr checks
    done;
    Memcached.Client.close c;
    !checks
  in

  let writer index ~stop =
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:(config.seed + 7)) index
    in
    let c = Memcached.Client.connect ~retries:2 addr in
    let ops = ref 0 in
    while not (Atomic.get stop) do
      let k =
        config.resident_keys
        + Rp_workload.Prng.below prng (max 1 config.churn_keys)
      in
      (match
         Memcached.Client.try_set c ~key:(key_name k)
           ~data:(string_of_int (churn_value k))
           ()
       with
      | `Stored | `Not_stored -> ()
      | `Overloaded _ -> Atomic.incr shed_seen
      | exception _ -> Atomic.incr wrong);
      incr ops
    done;
    Memcached.Client.close c;
    !ops
  in

  (* The disk chaos: a third into the run every op-log append starts
     raising (ENOSPC stand-in); a third later the disk "clears". The
     direct store write right after arming guarantees at least one
     latched failure even if the guard sheds the client writers within a
     sweep. *)
  let chaos ~stop =
    let third = config.duration /. 3. in
    Unix.sleepf third;
    Rp_fault.arm ~seed:config.seed append_site
      ~trigger:(Rp_fault.Probability 1.0) ~action:Rp_fault.Raise;
    ignore (Memcached.Store.set store ~key:"chaos" ~flags:0 ~exptime:0 ~data:"x");
    Unix.sleepf third;
    Rp_fault.disarm append_site;
    while not (Atomic.get stop) do
      Unix.sleepf 0.005
    done;
    0
  in

  let readers_n = max 1 config.readers in
  let writers_n = max 2 config.writers in
  let workers =
    Array.concat
      [
        Array.init readers_n (fun i ~stop -> reader i ~stop);
        Array.init writers_n (fun i ~stop -> writer (i + 100) ~stop);
        [| (fun ~stop -> chaos ~stop) |];
      ]
  in
  let structural = ref 0 in
  let recovered = ref false in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Rp_fault.disarm append_site;
        if config.fault_injection then disarm_perturbations ();
        (* The ladder must have peaked at Emergency during the outage
           and must fully resolve once the window expires. *)
        if Rp_guard.peak_state guard <> Rp_guard.Emergency then
          incr structural;
        recovered := await_healthy guard ~timeout:2.0;
        (* Durability restored: a fresh mutation must ack and append. *)
        (try
           let c = Memcached.Client.connect ~retries:4 addr in
           let before = Memcached.Persist.append_errors persist in
           if not (Memcached.Client.set c ~key:"post" ~data:"recovered" ())
           then incr structural;
           if Memcached.Persist.append_errors persist <> before then
             incr structural;
           Memcached.Client.close c
         with _ -> incr structural);
        Rp_guard.stop guard;
        Memcached.Server.stop server;
        Memcached.Persist.stop persist)
      (fun () -> Rp_harness.Runner.run ~duration:config.duration ~workers ())
  in
  let reader_checks =
    Array.fold_left ( + ) 0 (Array.sub outcome.per_worker_ops 0 readers_n)
  in
  let writer_ops =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops readers_n writers_n)
  in
  {
    reader_checks;
    missing_resident = Atomic.get missing;
    wrong_value = Atomic.get wrong + !structural;
    writer_ops;
    resize_flips = 0;
    faults_injected =
      Rp_fault.fires append_site
      + Memcached.Persist.append_errors persist
      + (if config.fault_injection then perturbation_fires () else 0);
    stalls_detected = Rp_guard.transitions guard;
    recoveries = (if !recovered then 1 else 0);
    elapsed = outcome.elapsed;
    metrics = Rp_obs.Registry.to_stats (Memcached.Store.registry store);
  }

(* --- replication_divergence scenario: kill -9 the leader mid-stream ---

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

let scrub_dir dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

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

let spawn_server bin args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process bin
      (Array.of_list (bin :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  (pid, Unix.in_channel_of_descr r)

(* Children announce their kernel-picked ports on stdout
   ("replication listener on 127.0.0.1:P", "listening on 127.0.0.1:P"). *)
let await_port oc ~prefix =
  let rec loop () =
    match input_line oc with
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

let kill_quiet pid signal =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let run_replication_divergence config =
  let bin = server_binary () in
  if not (Sys.file_exists bin) then
    failwith
      ("replication_divergence: memcached_server binary not found at " ^ bin
     ^ " (set TORTURE_SERVER_BIN)");
  let dir_for name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-torture-%s-%d" name (Unix.getpid ()))
  in
  let leader_dir = dir_for "repl-leader"
  and follower_dir = dir_for "repl-follower" in
  scrub_dir leader_dir;
  scrub_dir follower_dir;
  (* fsync=never: leader durability is not under test — the oracle runs
     against the promoted follower's live table, and slow fsyncs would
     just eat the short budget. *)
  let common =
    [
      "-p"; "0"; "--snapshot-interval"; "0"; "--guard"; "false";
      "--fsync-policy"; "never"; "--trace-sample"; "1";
    ]
  in
  let leader_pid, leader_out =
    spawn_server bin
      ([ "--data-dir"; leader_dir; "--repl-port"; "0" ] @ common)
  in
  let repl_port = await_port leader_out ~prefix:"replication listener" in
  let leader_port = await_port leader_out ~prefix:"listening on" in

  let writers_n = max 1 config.writers in
  let range = max 1 config.churn_keys in
  let key_name i j = Printf.sprintf "rk%d:%d" i j in
  (* Per-writer models over disjoint key ranges: each Hashtbl is touched
     by exactly one writer until the join, so no locking. The client is
     blocking request-response, so a model entry always reflects an
     acked mutation. *)
  let models = Array.init writers_n (fun _ -> Hashtbl.create 64) in

  let writer index ~stop =
    let model = models.(index) in
    let client =
      Memcached.Client.connect ~retries:4 (Memcached.Server.Tcp leader_port)
    in
    let prng =
      Rp_workload.Prng.split
        (Rp_workload.Prng.create ~seed:(config.seed + 11))
        index
    in
    let ops = ref 0 in
    while not (Atomic.get stop) do
      let j = Rp_workload.Prng.below prng range in
      let key = key_name index j in
      if Rp_workload.Prng.below prng 4 > 0 then begin
        let data = Printf.sprintf "%d:%d:%d" index j !ops in
        if Memcached.Client.set client ~key ~data () then
          Hashtbl.replace model key data
      end
      else begin
        (* Acked either way: afterwards the key is absent. *)
        ignore (Memcached.Client.delete client key);
        Hashtbl.remove model key
      end;
      incr ops
    done;
    Memcached.Client.close client;
    !ops
  in

  (* Background GETs keep the leader's read path busy while it streams. *)
  let reader index ~stop =
    let client =
      Memcached.Client.connect ~retries:4 (Memcached.Server.Tcp leader_port)
    in
    let prng =
      Rp_workload.Prng.split (Rp_workload.Prng.create ~seed:config.seed) index
    in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let i = Rp_workload.Prng.below prng writers_n in
      let j = Rp_workload.Prng.below prng range in
      ignore (Memcached.Client.get client (key_name i j));
      incr checks
    done;
    Memcached.Client.close client;
    !checks
  in

  (* Mid-load, the controller attaches the follower — so its catch-up
     cursor starts against a log that is still growing and the
     catch-up -> live-tap handoff happens under write traffic. *)
  let follower = ref None in
  let controller ~stop =
    Unix.sleepf (config.duration /. 3.);
    let pid, out =
      spawn_server bin
        ([
           "--data-dir"; follower_dir;
           "--replica-of"; Printf.sprintf "127.0.0.1:%d" repl_port;
         ]
        @ common)
    in
    let port = await_port out ~prefix:"listening on" in
    follower := Some (pid, port, out);
    while not (Atomic.get stop) do
      Unix.sleepf 0.005
    done;
    1
  in

  let workers =
    Array.concat
      [
        Array.init config.readers (fun i ~stop -> reader i ~stop);
        Array.init writers_n (fun i ~stop -> writer i ~stop);
        [| (fun ~stop -> controller ~stop) |];
      ]
  in
  let outcome = Rp_harness.Runner.run ~duration:config.duration ~workers () in

  let structural = ref 0 in
  let recoveries = ref 0 in
  let fpid, fport, follower_out =
    match !follower with
    | Some x -> x
    | None -> failwith "replication_divergence: follower never attached"
  in
  let stat stats name =
    match List.assoc_opt name stats with Some v -> v | None -> ""
  in
  (* Watermark: the leader's own `stats cluster` must show the follower
     caught up with acked_seq == sent_seq — the exact lines an operator
     would watch before trusting a failover. *)
  let admin =
    Memcached.Client.connect ~retries:4 (Memcached.Server.Tcp leader_port)
  in
  let leader_cluster = ref [] in
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
  if not (caught_up ()) then incr structural;
  Memcached.Client.close admin;

  (* The kill -9: the stream is live, the leader process simply stops
     existing. Nothing graceful runs — no flush, no close, no goodbye. *)
  kill_quiet leader_pid Sys.sigkill;
  reap leader_pid;
  close_in_noerr leader_out;
  let faults = 1 in

  let fc = Memcached.Client.connect ~retries:4 (Memcached.Server.Tcp fport) in
  (* Still a replica: mutations must be refused until promotion. *)
  (match Memcached.Client.try_set fc ~key:"ro-probe" ~data:"x" () with
  | `Overloaded _ -> ()
  | `Stored | `Not_stored -> incr structural);
  (match Memcached.Client.promote fc with
  | Ok () -> incr recoveries
  | Error _ -> incr structural);

  (* The oracle: exact model equality against the promoted store. *)
  let missing = ref 0 and wrong = ref 0 and checked = ref 0 in
  let expected = ref 0 in
  Array.iter
    (fun model ->
      expected := !expected + Hashtbl.length model;
      Hashtbl.iter
        (fun key data ->
          incr checked;
          match Memcached.Client.get fc key with
          | Some v when v.Memcached.Protocol.vdata = data -> ()
          | Some _ -> incr wrong
          | None -> incr missing)
        model)
    models;
  (* No resurrections: the promoted store holds exactly the model keys. *)
  (match int_of_string_opt (stat (Memcached.Client.stats fc) "curr_items") with
  | Some items ->
      let extra = items - !expected + !missing in
      if extra > 0 then wrong := !wrong + extra
  | None -> incr structural);
  let follower_cluster = Memcached.Client.stats ~arg:"cluster" fc in
  if stat follower_cluster "cluster_role" <> "promoted" then incr structural;
  Memcached.Client.close fc;

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
    | Some v -> v.Memcached.Protocol.vdata = "promoted"
    | None -> false
  in
  if failover_ok then incr recoveries else incr structural;
  Memcached.Client.close ring;

  kill_quiet fpid Sys.sigkill;
  reap fpid;
  close_in_noerr follower_out;

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
  let metrics =
    numeric "leader_" !leader_cluster @ numeric "follower_" follower_cluster
  in
  let reader_checks =
    !checked
    + Array.fold_left ( + ) 0 (Array.sub outcome.per_worker_ops 0 config.readers)
  in
  let writer_ops =
    Array.fold_left ( + ) 0
      (Array.sub outcome.per_worker_ops config.readers writers_n)
  in
  {
    reader_checks;
    missing_resident = !missing;
    wrong_value = !wrong + !structural;
    writer_ops;
    resize_flips = 0;
    faults_injected = faults;
    stalls_detected = 0;
    recoveries = !recoveries;
    elapsed = outcome.elapsed;
    metrics;
  }

let run config =
  validate_config config;
  match config.scenario with
  | "steady" -> run_steady config
  | "crash_resizer" -> run_crash_resizer config
  | "lazy_split_crash" -> run_lazy_split_crash config
  | "mixed_rw" -> run_mixed_rw config
  | "stalled_reader" -> run_stalled_reader config
  | "torn_io" -> run_torn_io config
  | "crash_recovery" -> run_crash_recovery config
  | "overload_storm" -> run_overload_storm config
  | "slow_client" -> run_slow_client config
  | "disk_full" -> run_disk_full config
  | "replication_divergence" -> run_replication_divergence config
  | "tier_crash" -> run_tier_crash config
  | _ -> assert false
