(* Userspace RCU: two reader protocols over one registry.

   Slot protocol: ctr = 0 when the slot pins nothing (memb: outside any
   section; QSBR: offline), otherwise an epoch the slot observed (memb: at
   its outermost read_lock; QSBR: at its last quiescent state).
   synchronize advances the epoch to E and waits, per slot, for ctr = 0 or
   ctr >= E. Under OCaml's seq_cst atomics this single advance is a full
   grace period: if synchronize's scan reads ctr = 0 for a slot, that
   slot's next read_lock (memb) or online (QSBR) stores an epoch value
   loaded after our epoch increment, hence >= E, and every write made
   before synchronize began (e.g. an unlink) is visible inside that later
   critical section.

   A slot belongs to a domain, and the domain's systhreads share it: the
   nesting count is the domain's, and [holder] names the systhread that
   opened the outermost section. So synchronize can tell its own thread's
   section (an error) from a sibling thread's (waited out, yielding the
   domain to it). Systhreads switch only at allocations and polls, so the
   plain read-modify-writes of [nesting] below are never interleaved. *)

type mode = Memb | Qsbr

type slot = {
  ctr : int Atomic.t;
  in_use : bool Atomic.t;
  mutable owner : int;  (* domain id, meaningful while in_use *)
  mutable nesting : int;  (* touched only by the owning domain *)
  mutable holder : int;  (* Thread.id that opened the outermost section *)
  mutable sections : int;  (* completed outermost sections (QSBR) *)
}

type reader = { slot : slot; epoch : int Atomic.t; mode : mode }

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
  mode : mode;
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

(* A QSBR slot announces a quiescent state by itself after every 64th
   completed outermost section. *)
let quiesce_mask = 63

let create ?(mode = Memb) ?(max_readers = 128) ?stall_budget () =
  if max_readers < 1 then invalid_arg "Rcu.create: max_readers < 1";
  {
    mode;
    epoch = Atomic.make 1;
    slots =
      Array.init max_readers (fun _ ->
          {
            ctr = Atomic.make 0;
            in_use = Atomic.make false;
            owner = -1;
            nesting = 0;
            holder = -1;
            sections = 0;
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

let mode t = t.mode
let self_thread () = Thread.id (Thread.self ())

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
  let slot = t.slots.(find 0) in
  slot.owner <- (Domain.self () :> int);
  slot.nesting <- 0;
  (* A QSBR reader is born online, quiescent as of now. *)
  Atomic.set slot.ctr (match t.mode with Memb -> 0 | Qsbr -> Atomic.get t.epoch);
  Atomic.set slot.in_use true;
  Mutex.unlock t.reg_mutex;
  { slot; epoch = t.epoch; mode = t.mode }

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

(* --- quiescent states (QSBR; memb readers are quiescent outside sections) --- *)

let check_outside r what =
  if r.slot.nesting <> 0 then invalid_arg ("Rcu." ^ what ^ ": inside a critical section")

let quiescent_state (r : reader) =
  check_outside r "quiescent_state";
  if r.mode = Qsbr then Atomic.set r.slot.ctr (Atomic.get r.epoch)

let offline (r : reader) =
  check_outside r "offline";
  if r.mode = Qsbr then Atomic.set r.slot.ctr 0

(* Only an offline slot is written: a sibling thread's section may have
   brought it online, and a newer epoch would announce a quiescent state
   on that section's behalf. *)
let online (r : reader) =
  if r.mode = Qsbr && Atomic.get r.slot.ctr = 0 then
    Atomic.set r.slot.ctr (Atomic.get r.epoch)

let is_online (r : reader) = r.mode = Memb || Atomic.get r.slot.ctr <> 0

let offline_current t =
  match Domain.DLS.get t.dls with Some r -> offline r | None -> ()

(* --- read-side critical sections --- *)

let enter (r : reader) =
  let slot = r.slot in
  if slot.nesting = 0 then begin
    slot.holder <- self_thread ();
    if r.mode = Memb then Atomic.set slot.ctr (Atomic.get r.epoch)
  end;
  slot.nesting <- slot.nesting + 1

let read_lock (r : reader) =
  if r.mode = Qsbr && Atomic.get r.slot.ctr = 0 then
    invalid_arg "Rcu.read_lock: reader is offline";
  enter r

let read_unlock (r : reader) =
  let slot = r.slot in
  if slot.nesting <= 0 then invalid_arg "Rcu.read_unlock: not in a critical section";
  slot.nesting <- slot.nesting - 1;
  if slot.nesting = 0 then
    match r.mode with
    | Memb -> Atomic.set slot.ctr 0
    | Qsbr ->
        slot.sections <- slot.sections + 1;
        if slot.sections land quiesce_mask = 0 then
          Atomic.set slot.ctr (Atomic.get r.epoch)

(* Run [f] inside the section [r] was just entered into. *)
let section r f =
  match f () with
  | v ->
      read_unlock r;
      v
  | exception e ->
      read_unlock r;
      raise e

let with_read r f =
  read_lock r;
  section r f

(* The current domain's section, bringing a QSBR domain back online. *)
let enter_current t =
  let r = reader_for_current_domain t in
  online r;
  enter r;
  r

let read_lock_current t = ignore (enter_current t : reader)
let read_unlock_current t = read_unlock (reader_for_current_domain t)
let with_read_current t f = section (enter_current t) f

let in_critical_section r = r.slot.nesting > 0

(* --- publication --- *)

let publish cell v = Atomic.set cell v
let dereference cell = Atomic.get cell

(* --- grace periods --- *)

(* A slot of the caller's own domain in a section is held either by the
   calling thread, which would wait on itself forever, or by a sibling
   systhread, which can only leave once the caller yields the domain. *)
let wait_sibling (slot : slot) =
  if slot.nesting > 0 && slot.holder = self_thread () then
    invalid_arg "Rcu.synchronize: called from within a read-side critical section";
  Thread.yield ()

(* QSBR: the caller holds no references, so its domain goes offline for
   the wait (concurrent synchronize callers queued on gp_mutex then do not
   stall each other's grace periods), once any sibling thread's section
   has ended. Returns the reader to bring back online. *)
let leave_for_wait t =
  match (t.mode, Domain.DLS.get t.dls) with
  | Qsbr, Some r when Atomic.get r.slot.ctr <> 0 ->
      while r.slot.nesting > 0 do
        wait_sibling r.slot
      done;
      offline r;
      Some r
  | _ -> None

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
  let dom = (Domain.self () :> int) in
  Array.iteri
    (fun i slot ->
      if Atomic.get slot.in_use then begin
        Rp_fault.point "rcu.synchronize.scan";
        let sibling = slot.owner = dom in
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
            if sibling then wait_sibling slot else Rp_sync.Backoff.once backoff;
            wait ()
          end
        in
        wait ()
      end)
    t.slots

let k_gp = Rp_trace.intern "rcu.gp"

let synchronize t =
  Rp_fault.point "rcu.synchronize.pre";
  let rejoin = leave_for_wait t in
  let started = Unix.gettimeofday () in
  let gp_span = Rp_trace.span_begin k_gp in
  Mutex.lock t.gp_mutex;
  let new_epoch = 1 + Atomic.fetch_and_add t.epoch 1 in
  let finish () =
    Mutex.unlock t.gp_mutex;
    Rp_trace.span_end ~arg:new_epoch k_gp gp_span;
    Option.iter online rejoin
  in
  (* The scan can raise (the failpoint, or the caller's own section);
     never leave gp_mutex held. *)
  (match scan_slots t ~new_epoch with
  | () -> ()
  | exception e ->
      finish ();
      raise e);
  Atomic.incr t.gp_count;
  Atomic.incr t.sync_count;
  finish ();
  Rp_obs.Histogram.observe_span t.gp_hist ~start:started
    ~stop:(Unix.gettimeofday ())

(* A writer lock whose holder may be waiting for a grace period: a QSBR
   domain blocked on it while online would stall that grace period
   forever, so it goes offline for the wait. A memb waiter outside any
   section pins nothing and simply blocks. *)
let mutex_lock t m =
  if not (Mutex.try_lock m) then
    match (t.mode, Domain.DLS.get t.dls) with
    | Qsbr, Some r when r.slot.nesting = 0 && Atomic.get r.slot.ctr <> 0 ->
        offline r;
        Mutex.lock m;
        online r
    | _ -> Mutex.lock m

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

let pending_callbacks t =
  Mutex.lock t.cb_mutex;
  let n = Queue.length t.cb_queue in
  Mutex.unlock t.cb_mutex;
  n

let call_rcu t cb =
  Rp_fault.point "rcu.call_rcu.enqueue";
  Mutex.lock t.cb_mutex;
  Queue.add cb t.cb_queue;
  let n = Queue.length t.cb_queue in
  Mutex.unlock t.cb_mutex;
  if n >= t.cb_threshold then flush t

let rec barrier t =
  flush t;
  if pending_callbacks t > 0 then barrier t

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
