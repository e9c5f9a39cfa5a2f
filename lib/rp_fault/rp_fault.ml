exception Injected of string

type action = Delay of float | Yield | Raise | Truncate_io of int

type trigger = Always | Every of int | Probability of float | One_shot

type site = {
  key : int;  (* the interned ["fault.<site>"] trace name *)
  mutable trigger : trigger;
  mutable action : action;
  mutable prng : Rp_workload.Prng.t;
  mutable hits : int;
  mutable fires : int;
  mutable active : bool;
}

(* Fast path: [point] is compiled into hot code, so when nothing is armed it
   must cost one atomic load and a branch. *)
let armed_count = Atomic.make 0

let registry : (string, site) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  match f () with
  | v ->
      Mutex.unlock registry_mutex;
      v
  | exception e ->
      Mutex.unlock registry_mutex;
      raise e

let arm ?seed name ~trigger ~action =
  (match trigger with
  | Every n when n < 1 -> invalid_arg "Rp_fault.arm: Every n with n < 1"
  | Probability p when not (p >= 0.0 && p <= 1.0) ->
      invalid_arg "Rp_fault.arm: probability outside [0, 1]"
  | _ -> ());
  let seed = match seed with Some s -> s | None -> Hashtbl.hash name in
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some site ->
          if not site.active then Atomic.incr armed_count;
          site.trigger <- trigger;
          site.action <- action;
          site.prng <- Rp_workload.Prng.create ~seed;
          site.hits <- 0;
          site.fires <- 0;
          site.active <- true
      | None ->
          Hashtbl.add registry name
            {
              key = Rp_trace.intern ("fault." ^ name);
              trigger;
              action;
              prng = Rp_workload.Prng.create ~seed;
              hits = 0;
              fires = 0;
              active = true;
            };
          Atomic.incr armed_count)

let disarm name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some site when site.active ->
          site.active <- false;
          Atomic.decr armed_count
      | Some _ | None -> ())

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ site -> if site.active then Atomic.decr armed_count)
        registry;
      Hashtbl.reset registry)

let armed name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some site -> site.active
      | None -> false)

let armed_sites () =
  with_registry (fun () ->
      Hashtbl.fold
        (fun name site acc -> if site.active then name :: acc else acc)
        registry [])
  |> List.sort String.compare

let hits name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with Some s -> s.hits | None -> 0)

let fires name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with Some s -> s.fires | None -> 0)

(* Evaluate the trigger under the registry lock; the action itself runs
   outside it (a Delay must not serialize unrelated sites, and a Raise must
   not leave the lock held). *)
let evaluate name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | None -> None
      | Some site when not site.active -> None
      | Some site ->
          site.hits <- site.hits + 1;
          let fire =
            match site.trigger with
            | Always -> true
            | Every n -> site.hits mod n = 0
            | Probability p -> Rp_workload.Prng.float site.prng < p
            | One_shot ->
                site.active <- false;
                Atomic.decr armed_count;
                true
          in
          if fire then begin
            site.fires <- site.fires + 1;
            Some (site.key, site.action)
          end
          else None)

let perform name = function
  | Delay s -> if s > 0.0 then Unix.sleepf s
  | Yield -> Thread.yield ()
  | Raise -> raise (Injected name)
  | Truncate_io _ -> ()

(* Fires are rare, armed-only events: worth a trace instant each so a
   torture run's timeline shows exactly where faults landed. *)
let point name =
  if Atomic.get armed_count > 0 then
    match evaluate name with
    | None -> ()
    | Some (key, action) ->
        Rp_trace.instant key;
        perform name action

let io_cap name len =
  if Atomic.get armed_count = 0 then len
  else
    match evaluate name with
    | None -> len
    | Some (key, Truncate_io cap) ->
        Rp_trace.instant key;
        max 1 (min cap len)
    | Some (key, action) ->
        Rp_trace.instant key;
        perform name action;
        len
