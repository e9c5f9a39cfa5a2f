(* Epoch-based userspace RCU ("memb" flavour).

   Reader slot protocol: ctr = 0 when quiescent, otherwise the global epoch
   value observed at the outermost read_lock. synchronize advances the epoch
   to E and waits, per slot, for ctr = 0 or ctr >= E. Under OCaml's seq_cst
   atomics this single advance is a full grace period: if synchronize's scan
   reads ctr = 0 for a slot, that slot's next read_lock stores an epoch value
   loaded after our epoch increment, hence >= E, and every write made before
   synchronize began (e.g. an unlink) is visible inside that later critical
   section. *)

type slot = {
  ctr : int Atomic.t;
  in_use : bool Atomic.t;
  mutable owner : int;  (* domain id, meaningful while in_use *)
  mutable nesting : int;  (* touched only by the owning domain *)
}

type reader = { slot : slot; epoch : int Atomic.t }

exception Too_many_readers

type stats = {
  grace_periods : int;
  synchronize_calls : int;
  callbacks_invoked : int;
  readers_registered : int;
}

type stall_report = {
  slot_index : int;
  owner_domain : int;
  nesting : int;
  slot_epoch : int;
  target_epoch : int;
  waited : float;
}

type t = {
  epoch : int Atomic.t;
  slots : slot array;
  reg_mutex : Mutex.t;
  gp_mutex : Mutex.t;
  dls : reader option Domain.DLS.key;
  cb_mutex : Mutex.t;
  cb_queue : (unit -> unit) Queue.t;
  cb_threshold : int;
  gp_count : int Atomic.t;
  sync_count : int Atomic.t;
  cb_count : int Atomic.t;
  mutable stall_budget : float option;
  mutable stall_handler : (stall_report -> unit) option;
  stall_count : int Atomic.t;
  mutable last_stall : stall_report option;
  gp_hist : Rp_obs.Histogram.t;  (* grace-period latency, ns *)
}

let create ?(max_readers = 128) ?stall_budget () =
  if max_readers < 1 then invalid_arg "Rcu.create: max_readers < 1";
  {
    epoch = Atomic.make 1;
    slots =
      Array.init max_readers (fun _ ->
          {
            ctr = Atomic.make 0;
            in_use = Atomic.make false;
            owner = -1;
            nesting = 0;
          });
    reg_mutex = Mutex.create ();
    gp_mutex = Mutex.create ();
    dls = Domain.DLS.new_key (fun () -> None);
    cb_mutex = Mutex.create ();
    cb_queue = Queue.create ();
    cb_threshold = 64;
    gp_count = Atomic.make 0;
    sync_count = Atomic.make 0;
    cb_count = Atomic.make 0;
    stall_budget;
    stall_handler = None;
    stall_count = Atomic.make 0;
    last_stall = None;
    gp_hist = Rp_obs.Histogram.create ();
  }

(* --- registration --- *)

let register t =
  Mutex.lock t.reg_mutex;
  let rec find i =
    if i >= Array.length t.slots then begin
      Mutex.unlock t.reg_mutex;
      raise Too_many_readers
    end
    else if not (Atomic.get t.slots.(i).in_use) then i
    else find (i + 1)
  in
  let i = find 0 in
  let slot = t.slots.(i) in
  slot.owner <- (Domain.self () :> int);
  slot.nesting <- 0;
  Atomic.set slot.ctr 0;
  Atomic.set slot.in_use true;
  Mutex.unlock t.reg_mutex;
  { slot; epoch = t.epoch }

let unregister t r =
  if r.slot.nesting <> 0 then
    invalid_arg "Rcu.unregister: reader inside a critical section";
  (match Domain.DLS.get t.dls with
  | Some cached when cached.slot == r.slot -> Domain.DLS.set t.dls None
  | Some _ | None -> ());
  Mutex.lock t.reg_mutex;
  Atomic.set r.slot.ctr 0;
  r.slot.owner <- -1;
  Atomic.set r.slot.in_use false;
  Mutex.unlock t.reg_mutex

let reader_for_current_domain t =
  match Domain.DLS.get t.dls with
  | Some r -> r
  | None ->
      let r = register t in
      Domain.DLS.set t.dls (Some r);
      r

let registered_readers t =
  Array.fold_left
    (fun acc slot -> if Atomic.get slot.in_use then acc + 1 else acc)
    0 t.slots

(* --- read-side critical sections --- *)

let read_lock r =
  let slot = r.slot in
  if slot.nesting = 0 then Atomic.set slot.ctr (Atomic.get r.epoch);
  slot.nesting <- slot.nesting + 1

let read_unlock r =
  let slot = r.slot in
  if slot.nesting <= 0 then invalid_arg "Rcu.read_unlock: not in a critical section";
  slot.nesting <- slot.nesting - 1;
  if slot.nesting = 0 then Atomic.set slot.ctr 0

let with_read r f =
  read_lock r;
  match f () with
  | v ->
      read_unlock r;
      v
  | exception e ->
      read_unlock r;
      raise e

let read_lock_current t = read_lock (reader_for_current_domain t)
let read_unlock_current t = read_unlock (reader_for_current_domain t)
let with_read_current t f = with_read (reader_for_current_domain t) f
let in_critical_section r = r.slot.nesting > 0

(* --- publication --- *)

let publish cell v = Atomic.set cell v
let dereference cell = Atomic.get cell

(* --- grace periods --- *)

let check_not_reading t =
  let self = (Domain.self () :> int) in
  Array.iter
    (fun slot ->
      if Atomic.get slot.in_use && slot.owner = self && Atomic.get slot.ctr <> 0
      then
        invalid_arg "Rcu.synchronize: called from within a read-side critical section")
    t.slots

(* Watchdog: called from the scan's wait loop once the per-slot wait
   exceeds the budget. Reports once per slot per grace period (like Linux
   RCU CPU-stall warnings, minus the repeat timer). [nesting] is owned by
   the stuck reader's domain; the racy read is fine for diagnostics. *)
let report_stall t ~slot_index ~slot ~slot_epoch ~target_epoch ~waited =
  let report =
    {
      slot_index;
      owner_domain = slot.owner;
      nesting = slot.nesting;
      slot_epoch;
      target_epoch;
      waited;
    }
  in
  t.last_stall <- Some report;
  Atomic.incr t.stall_count;
  Rp_trace.instant ~arg:slot_index (Rp_trace.intern "rcu.stall");
  match t.stall_handler with
  | Some f -> ( try f report with _ -> ())
  | None -> ()

let scan_slots t ~new_epoch =
  Array.iteri
    (fun i slot ->
      if Atomic.get slot.in_use then begin
        Rp_fault.point "rcu.synchronize.scan";
        let backoff = Rp_sync.Backoff.create ~max_wait:256 () in
        let started = ref 0.0 in
        let reported = ref false in
        let rec wait () =
          let c = Atomic.get slot.ctr in
          if c <> 0 && c < new_epoch then begin
            (match t.stall_budget with
            | Some budget when not !reported ->
                let now = Unix.gettimeofday () in
                if !started = 0.0 then started := now
                else if now -. !started >= budget then begin
                  reported := true;
                  report_stall t ~slot_index:i ~slot ~slot_epoch:c
                    ~target_epoch:new_epoch ~waited:(now -. !started)
                end
            | Some _ | None -> ());
            Rp_sync.Backoff.once backoff;
            wait ()
          end
        in
        wait ()
      end)
    t.slots

let k_gp = Rp_trace.intern "rcu.gp"

let synchronize t =
  check_not_reading t;
  Rp_fault.point "rcu.synchronize.pre";
  let started = Unix.gettimeofday () in
  let gp_span = Rp_trace.span_begin k_gp in
  Mutex.lock t.gp_mutex;
  let new_epoch = 1 + Atomic.fetch_and_add t.epoch 1 in
  (* The scan can raise via the failpoint; never leave gp_mutex held. *)
  (match scan_slots t ~new_epoch with
  | () -> ()
  | exception e ->
      Mutex.unlock t.gp_mutex;
      Rp_trace.span_end ~arg:new_epoch k_gp gp_span;
      raise e);
  Atomic.incr t.gp_count;
  Atomic.incr t.sync_count;
  Mutex.unlock t.gp_mutex;
  Rp_trace.span_end ~arg:new_epoch k_gp gp_span;
  Rp_obs.Histogram.observe_span t.gp_hist ~start:started
    ~stop:(Unix.gettimeofday ())

(* --- deferred callbacks --- *)

let drain_queue t =
  Mutex.lock t.cb_mutex;
  let pending = Queue.create () in
  Queue.transfer t.cb_queue pending;
  Mutex.unlock t.cb_mutex;
  pending

let flush t =
  let pending = drain_queue t in
  if not (Queue.is_empty pending) then begin
    synchronize t;
    Queue.iter
      (fun cb ->
        cb ();
        Atomic.incr t.cb_count)
      pending
  end

let call_rcu t cb =
  Rp_fault.point "rcu.call_rcu.enqueue";
  Mutex.lock t.cb_mutex;
  Queue.add cb t.cb_queue;
  let n = Queue.length t.cb_queue in
  Mutex.unlock t.cb_mutex;
  if n >= t.cb_threshold then flush t

let barrier t =
  let rec loop () =
    flush t;
    Mutex.lock t.cb_mutex;
    let n = Queue.length t.cb_queue in
    Mutex.unlock t.cb_mutex;
    if n > 0 then loop ()
  in
  loop ()

let pending_callbacks t =
  Mutex.lock t.cb_mutex;
  let n = Queue.length t.cb_queue in
  Mutex.unlock t.cb_mutex;
  n

(* --- stall watchdog configuration --- *)

let set_stall_budget t budget =
  (match budget with
  | Some b when b <= 0.0 -> invalid_arg "Rcu.set_stall_budget: budget <= 0"
  | _ -> ());
  t.stall_budget <- budget

let stall_budget t = t.stall_budget
let set_stall_handler t handler = t.stall_handler <- handler
let stall_count t = Atomic.get t.stall_count
let last_stall t = t.last_stall

let pp_stall_report ppf r =
  Format.fprintf ppf
    "@[<h>rcu stall: slot %d owned by domain %d (nesting %d) pinned at epoch \
     %d < %d after %.3fs@]"
    r.slot_index r.owner_domain r.nesting r.slot_epoch r.target_epoch r.waited

(* --- statistics --- *)

let stats t =
  {
    grace_periods = Atomic.get t.gp_count;
    synchronize_calls = Atomic.get t.sync_count;
    callbacks_invoked = Atomic.get t.cb_count;
    readers_registered = registered_readers t;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<h>grace_periods=%d synchronize_calls=%d callbacks_invoked=%d readers=%d@]"
    s.grace_periods s.synchronize_calls s.callbacks_invoked s.readers_registered

(* --- observability --- *)

let observe ?(prefix = "rcu") t reg =
  let name suffix = prefix ^ "_" ^ suffix in
  let fn c () = float_of_int (Atomic.get c) in
  Rp_obs.Registry.fn_counter reg ~help:"completed grace periods"
    (name "grace_periods_total") (fn t.gp_count);
  Rp_obs.Registry.fn_counter reg ~help:"explicit synchronize calls"
    (name "synchronize_total") (fn t.sync_count);
  Rp_obs.Registry.fn_counter reg ~help:"deferred callbacks invoked"
    (name "callbacks_total") (fn t.cb_count);
  Rp_obs.Registry.fn_counter reg
    ~help:"grace-period stalls detected by the watchdog"
    (name "stalls_total") (fn t.stall_count);
  Rp_obs.Registry.gauge reg ~help:"currently registered reader slots"
    (name "readers")
    (fun () -> float_of_int (registered_readers t));
  Rp_obs.Registry.gauge reg ~help:"queued not-yet-run callbacks"
    (name "callbacks_pending")
    (fun () -> float_of_int (pending_callbacks t));
  Rp_obs.Registry.register_histogram reg
    ~help:"grace-period latency in nanoseconds"
    (name "grace_period_ns") t.gp_hist
