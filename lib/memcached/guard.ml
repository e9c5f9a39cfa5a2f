(* Wiring between the generic {!Rp_guard} ladder and this serving stack:
   which pressures feed it, and which subsystems its transitions actuate.

   [install] attaches the store-level sources and actuators (memory
   pressure, RCU stall signal, Emergency eviction sweep, adaptive trace
   sampling); [watch_server] and [watch_persist] bolt on the
   connection-admission and disk-pressure sources once those subsystems
   exist. The order mirrors the server binary's startup: store -> persist
   -> server -> [Rp_guard.start]. *)

(* A detected grace-period stall means update-side progress (and thus
   reclamation) is wedged behind a stuck reader: pressure at Shed level —
   stop admitting new update work, keep reads flowing — decaying once the
   watchdog goes quiet. *)
let stall_pressure = 0.90

let install ?watermarks ?(interval = 0.05) ?(stall_window = 1.0) store =
  let g = Rp_guard.create ?watermarks ~interval () in
  (* Memory: slab bytes vs the eviction budget. Note this source alone
     cannot push past Shed in steady state — eviction holds bytes at
     ~max_bytes — which is the intent: a full-but-evicting cache is
     Throttle/Shed territory, not an Emergency.

     With an admitting cold tier below, the budget stops being a hard
     resource: the eviction sweep demotes overflow to disk, so a full
     hot layer is the healthy steady state and shedding SETs at ~full
     would make demotion unreachable (the sweep only fires past the
     budget). The source then measures how far the sweep is {e behind}
     — bytes past the budget, in budgets — and the tier's own source
     takes over as the cold side fills. If the tier stops admitting
     (guard emergency, tier full), raw fill pressure returns. *)
  let max_bytes = Store.max_bytes store in
  if max_bytes > 0 then
    Rp_guard.add_source g ~name:"mem" (fun () ->
        let raw =
          float_of_int (Store.bytes store) /. float_of_int max_bytes
        in
        if Store.tier_active store then Float.max 0.0 (raw -. 1.0) else raw);
  (* RCU stalls: an rp store's watchdog counts every grace period that
     waits on one reader past its budget (a lock store has no RCU). A
     count that moved within [stall_window] seconds holds stall
     pressure. *)
  let reg = Store.registry store in
  let stall_count () =
    Option.value ~default:0.0 (Rp_obs.Registry.value reg "rcu_stalls_total")
  in
  let last_count = ref (stall_count ()) in
  let last_moved = ref neg_infinity in
  Rp_guard.add_source g ~name:"rcu" (fun () ->
      let c = stall_count () in
      if c > !last_count then begin
        last_count := c;
        last_moved := Unix.gettimeofday ()
      end;
      if Unix.gettimeofday () -. !last_moved <= stall_window then
        stall_pressure
      else 0.0);
  (* Adaptive trace sampling: widen the head sampler as soon as the
     ladder leaves Healthy — incidents get dense traces without paying
     full overhead at healthy peak load. *)
  let base_sample = Rp_trace.sample_every () in
  let incident_sample = max 1 (base_sample / 16) in
  Rp_guard.on_transition g (fun _old new_s ->
      Rp_trace.configure
        ~sample:
          (if new_s = Rp_guard.Healthy then base_sample else incident_sample)
        ());
  (* Emergency: claw memory back immediately rather than waiting for the
     next store to trigger eviction. *)
  Rp_guard.on_transition g (fun _old new_s ->
      if new_s = Rp_guard.Emergency then ignore (Store.evict_to_budget store));
  Rp_guard.register_instruments g reg;
  Store.set_guard store (Some g);
  g

let watch_server g server =
  let cap = Server.capacity server in
  if cap > 0 then
    Rp_guard.add_source g ~name:"conns" (fun () ->
        float_of_int (Server.active_connections server) /. float_of_int cap)

let watch_persist g ?(error_window = 1.0) ?(log_budget_mb = 0) persist =
  (* Disk pressure has two faces: a hard append failure (ENOSPC or an
     injected fault) latches Emergency-level pressure until appends
     succeed again or the window expires; a growing op log ramps pressure
     toward 1.0 against its byte budget. *)
  Rp_guard.add_source g ~name:"disk" (fun () ->
      let failure =
        match Persist.last_append_error_age persist with
        | Some age when age <= error_window -> 2.0
        | _ -> 0.0
      in
      let growth =
        if log_budget_mb > 0 then
          float_of_int (Persist.oplog_bytes persist)
          /. float_of_int (log_budget_mb * 1024 * 1024)
        else 0.0
      in
      Float.max failure growth);
  (* Emergency actuators: group-commit instead of per-op fsync (an
     overloaded disk gets batched work), and stop snapshot walks (big
     sequential writes) until the pressure clears. Both revert on the
     way down. *)
  let normal_policy = Persist.fsync_policy persist in
  Rp_guard.on_transition g (fun old_s new_s ->
      if new_s = Rp_guard.Emergency then begin
        Persist.set_paused persist true;
        match normal_policy with
        | Some Rp_persist.Oplog.Always ->
            Persist.set_fsync_policy persist (Rp_persist.Oplog.Every 0.1)
        | _ -> ()
      end
      else if old_s = Rp_guard.Emergency then begin
        Persist.set_paused persist false;
        match normal_policy with
        | Some p -> Persist.set_fsync_policy persist p
        | None -> ()
      end)
