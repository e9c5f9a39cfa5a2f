(* Pressure-sensing policy plane: a degradation ladder fed by pluggable
   pressure sources.

   Sources report normalized pressure (0 = idle, 1 = at the configured
   limit, >1 = past it; a hard-failure latch reports 2). A periodic sweep
   takes the max across sources and walks the ladder

       Healthy -> Throttle -> Shed -> Emergency

   with hysteresis: each rung's down-threshold sits below its
   up-threshold, so the state never flaps at a boundary. Upward moves
   jump straight to the rung the pressure demands; downward moves also
   resolve in a single sweep (a storm that ends returns the guard to
   Healthy within one sweep interval), but only once pressure clears the
   lower threshold.

   The guard itself decides nothing about traffic — hot paths ask
   {!admit_mutation} (one atomic load) and act; actuators subscribe via
   {!on_transition}. Every transition is a control-tier flight-recorder
   event and bumps the registry instruments, so the ladder is visible in
   [stats guard], Prometheus, and the Perfetto export. *)

type state = Healthy | Throttle | Shed | Emergency

let state_name = function
  | Healthy -> "healthy"
  | Throttle -> "throttle"
  | Shed -> "shed"
  | Emergency -> "emergency"

let state_of_int = function
  | 0 -> Healthy
  | 1 -> Throttle
  | 2 -> Shed
  | _ -> Emergency

type watermarks = {
  throttle_up : float;
  throttle_down : float;
  shed_up : float;
  shed_down : float;
  emergency_up : float;
  emergency_down : float;
}

let default_watermarks =
  {
    throttle_up = 0.70;
    throttle_down = 0.55;
    shed_up = 0.85;
    shed_down = 0.70;
    emergency_up = 0.95;
    emergency_down = 0.80;
  }

(* "HIGH:LOW" positions the Shed rung; Throttle sits 0.15 below it and
   Emergency 0.10 above (clamped to 0.99), preserving the default
   ladder's shape around a caller-chosen center. *)
let watermarks_of_string s =
  match String.split_on_char ':' s with
  | [ hi; lo ] -> (
      match (float_of_string_opt hi, float_of_string_opt lo) with
      | Some hi, Some lo when 0.0 < lo && lo < hi && hi <= 1.0 ->
          Ok
            {
              throttle_up = Float.max 0.05 (hi -. 0.15);
              throttle_down = Float.max 0.01 (lo -. 0.15);
              shed_up = hi;
              shed_down = lo;
              emergency_up = Float.min 0.99 (hi +. 0.10);
              emergency_down = Float.min 0.95 (lo +. 0.10);
            }
      | _ -> Error "shed watermarks must satisfy 0 < LOW < HIGH <= 1")
  | _ -> Error "expected HIGH:LOW, e.g. 0.85:0.70"

type source = { src_name : string; sample : unit -> float; mutable last : float }

type t = {
  wm : watermarks;
  interval : float;
  state : int Atomic.t;
  mutex : Mutex.t;  (* sources/listeners registration; sweep serialization *)
  mutable sources : source list;  (* registration order reversed *)
  mutable listeners : (state -> state -> unit) list;
  mutable pressure : float;  (* max across sources at the last sweep *)
  mutable peak : int;  (* highest rung ever reached *)
  mutable last_transition : float;
  shed : Rp_obs.Counter.t;
  transitions : int Atomic.t;
  sweeps : int Atomic.t;
  running : bool Atomic.t;
  mutable sweeper : Thread.t option;
}

let k_state = Rp_trace.intern "guard.state"
let k_sweep = Rp_trace.intern "guard.sweep"

let create ?(watermarks = default_watermarks) ?(interval = 0.05) () =
  if interval <= 0.0 then invalid_arg "Rp_guard.create: interval <= 0";
  {
    wm = watermarks;
    interval;
    state = Atomic.make 0;
    mutex = Mutex.create ();
    sources = [];
    listeners = [];
    pressure = 0.0;
    peak = 0;
    last_transition = Unix.gettimeofday ();
    shed = Rp_obs.Counter.create ();
    transitions = Atomic.make 0;
    sweeps = Atomic.make 0;
    running = Atomic.make false;
    sweeper = None;
  }

let interval t = t.interval
let state t = state_of_int (Atomic.get t.state)
let peak_state t = state_of_int t.peak
let pressure t = t.pressure
let shed_total t = Rp_obs.Counter.read t.shed
let transitions t = Atomic.get t.transitions

(* Hot-path queries: one atomic load each. Mutations are shed from Shed
   up; connection admission closes only at Emergency (GET-only clients
   must still be able to reach the wait-free read path). *)
let admit_mutation t = Atomic.get t.state < 2
let accepting t = Atomic.get t.state < 3
let note_shed t = Rp_obs.Counter.incr t.shed

let add_source t ~name sample =
  Mutex.lock t.mutex;
  t.sources <- { src_name = name; sample; last = 0.0 } :: t.sources;
  Mutex.unlock t.mutex

let on_transition t f =
  Mutex.lock t.mutex;
  t.listeners <- f :: t.listeners;
  Mutex.unlock t.mutex

let source_pressures t =
  Mutex.lock t.mutex;
  let out = List.rev_map (fun s -> (s.src_name, s.last)) t.sources in
  Mutex.unlock t.mutex;
  out

(* The ladder step. Upward: straight to the rung the up-thresholds
   demand. Downward: straight to the rung whose down-threshold the
   pressure has cleared — but a pressure still inside a rung's
   hysteresis band (between down and up) holds the current rung. *)
let next_state wm cur p =
  let up =
    if p >= wm.emergency_up then 3
    else if p >= wm.shed_up then 2
    else if p >= wm.throttle_up then 1
    else 0
  in
  if up > cur then up
  else
    let down =
      if p < wm.throttle_down then 0
      else if p < wm.shed_down then 1
      else if p < wm.emergency_down then 2
      else 3
    in
    if down < cur then max down up else cur

let sweep t =
  Mutex.lock t.mutex;
  Atomic.incr t.sweeps;
  let p =
    List.fold_left
      (fun acc s ->
        let v = try s.sample () with _ -> s.last in
        s.last <- v;
        Float.max acc v)
      0.0 t.sources
  in
  t.pressure <- p;
  let cur = Atomic.get t.state in
  let next = next_state t.wm cur p in
  let fire =
    if next <> cur then begin
      Atomic.set t.state next;
      Atomic.incr t.transitions;
      if next > t.peak then t.peak <- next;
      t.last_transition <- Unix.gettimeofday ();
      (* Control tier: always recorded, so every transition lands in the
         Perfetto export with old*4+new packed in the arg. *)
      Rp_trace.instant ~arg:((cur * 4) + next) k_state;
      Some (t.listeners, state_of_int cur, state_of_int next)
    end
    else None
  in
  Mutex.unlock t.mutex;
  match fire with
  | None -> ()
  | Some (listeners, old_s, new_s) ->
      (* Actuators run outside the guard mutex (they may take store or
         persistence locks); a failing actuator must not kill the sweep. *)
      List.iter (fun f -> try f old_s new_s with _ -> ()) (List.rev listeners)

let sweeper_loop t =
  while Atomic.get t.running do
    Rp_trace.with_span k_sweep (fun () -> sweep t);
    Unix.sleepf t.interval
  done

let start t =
  if not (Atomic.get t.running) then begin
    Atomic.set t.running true;
    t.sweeper <- Some (Thread.create sweeper_loop t)
  end

let stop t =
  if Atomic.get t.running then begin
    Atomic.set t.running false;
    (match t.sweeper with Some th -> Thread.join th | None -> ());
    t.sweeper <- None
  end

let register_instruments t reg =
  Rp_obs.Registry.gauge reg
    ~help:"degradation ladder rung (0 healthy, 1 throttle, 2 shed, 3 emergency)"
    "guard_state" (fun () -> float_of_int (Atomic.get t.state));
  Rp_obs.Registry.gauge reg ~help:"highest ladder rung reached"
    "guard_state_peak" (fun () -> float_of_int t.peak);
  Rp_obs.Registry.gauge reg ~help:"max pressure across sources at last sweep"
    "guard_pressure" (fun () -> t.pressure);
  Rp_obs.Registry.register_counter reg
    ~help:"mutations fast-failed with SERVER_ERROR overloaded"
    "guard_shed_total" t.shed;
  Rp_obs.Registry.fn_counter reg ~help:"guard state transitions"
    "guard_transitions_total" (fun () -> float_of_int (Atomic.get t.transitions));
  Rp_obs.Registry.fn_counter reg ~help:"pressure sweeps run"
    "guard_sweeps_total" (fun () -> float_of_int (Atomic.get t.sweeps));
  Mutex.lock t.mutex;
  let sources = List.rev t.sources in
  Mutex.unlock t.mutex;
  List.iter
    (fun s ->
      Rp_obs.Registry.gauge reg
        ~help:("normalized pressure from the " ^ s.src_name ^ " source")
        ("guard_pressure_" ^ s.src_name)
        (fun () -> s.last))
    sources

let stats_kv t =
  let srcs =
    String.concat " "
      (List.map
         (fun (n, v) -> Printf.sprintf "%s=%.3f" n v)
         (source_pressures t))
  in
  [
    ("guard_state_name", state_name (state t));
    ("guard_state", string_of_int (Atomic.get t.state));
    ("guard_state_peak", state_name (peak_state t));
    ("guard_pressure", Printf.sprintf "%.3f" t.pressure);
    ("guard_sources", if srcs = "" then "-" else srcs);
    ("guard_shed_total", string_of_int (shed_total t));
    ("guard_transitions_total", string_of_int (transitions t));
    ("guard_sweep_interval_ms", Printf.sprintf "%.0f" (t.interval *. 1000.));
  ]
