(* The table workload: the paper's Figure 2 in process. One domain looks
   up resident keys (and some absent ones) in an Rp_ht on the library's
   default flavour, timing every lookup with the cycle counter, while a
   second domain resizes the table back and forth between [n] and [2n]
   buckets. A resident key that a lookup misses is a failed operation. *)

open Common

type input = {
  keys : string array;  (** resident 0 .. n-1, then n absent ones *)
  vals : string array;
  n : int;
  order : int array;  (** insertion order *)
  lookups : int array;  (** indices into [keys], cycled *)
}

let input (spec : Spec.t) ~seed =
  let n = spec.keys in
  let rng = Spec.prng ~seed 1 in
  let order = Array.init n Fun.id in
  Rp_workload.Prng.shuffle rng order;
  let rank = Spec.rank_sampler spec rng in
  let miss_share = Float.max spec.miss_share 0.1 in
  {
    keys = Array.init (2 * n) key_of;
    vals = Array.init n (fun i -> value_of i spec.value_len);
    n;
    order;
    lookups =
      Array.init (1 lsl 20) (fun _ ->
          if Rp_workload.Prng.float rng < miss_share then n + Rp_workload.Prng.below rng n
          else rank ());
  }

let create inp =
  Rp_ht.create ~initial_size:inp.n ~auto_resize:false ~hash:Hashtbl.hash
    ~equal:String.equal ()

let slice_ns = 1_000_000_000

let qs = [ 0.5; 0.9; 0.99 ]

let build inp =
  let t = create inp in
  Array.iter (fun i -> Rp_ht.insert t inp.keys.(i) inp.vals.(i)) inp.order;
  t

(* Every resident key maps to its own value and no absent key is found;
   then the whole-table invariant check. *)
let verify inp t =
  let bad = ref 0 in
  for i = 0 to (2 * inp.n) - 1 do
    match Rp_ht.find t inp.keys.(i) with
    | Some v when i < inp.n && v == inp.vals.(i) -> ()
    | None when i >= inp.n -> ()
    | _ -> incr bad
  done;
  (!bad, Rp_ht.validate t)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Resize between [n] and [2n] buckets until [stop]; returns the resizes
   completed by [deadline] (ns). *)
let resizer t n stop ~deadline =
  let count = ref 0 in
  let step size =
    Rp_ht.resize t size;
    if Rp_trace.now_ns () <= deadline then incr count
  in
  while not (Atomic.get stop) do
    step (2 * n);
    step n
  done;
  !count

(* Per-slice figures of one window, and the window's totals. *)
type window = {
  mutable ops : float list;  (** lookups per second *)
  mutable cpu : float list;  (** process CPU us per lookup *)
  lat : float list ref list;  (** lookup latency p50, p90, p99 (ticks) *)
  mutable hits : int;
  mutable misses : int;
  mutable bad : int;
  mutable resizes : int;
  mutable lookups_timed : int;
}

(* Look up for [ns] while a second domain resizes the table. *)
let measure inp t ~ns w =
  let h = Tick_hist.create () in
  let i = ref 0 and mask = Array.length inp.lookups - 1 in
  let stop = Atomic.make false in
  let t0 = Rp_trace.now_ns () in
  let deadline = t0 + ns in
  let rd = Domain.spawn (fun () -> resizer t inp.n stop ~deadline) in
  let cut_t = ref t0 and cut_cpu = ref (self_cpu ()) in
  let close_slice now =
    let cpu = self_cpu () in
    let n = float_of_int h.n in
    w.ops <- (n *. 1e9 /. float_of_int (now - !cut_t)) :: w.ops;
    w.cpu <- ((cpu -. !cut_cpu) *. 1e6 /. n) :: w.cpu;
    w.lookups_timed <- w.lookups_timed + h.n;
    Tick_hist.close_slice h qs w.lat;
    cut_t := now;
    cut_cpu := cpu
  in
  let now = ref t0 in
  while !now < deadline do
    for _ = 1 to 1024 do
      let j = Array.unsafe_get inp.lookups (!i land mask) in
      incr i;
      let k = Array.unsafe_get inp.keys j in
      let a = Rp_trace.now_ticks () in
      let r = Rp_ht.find t k in
      Tick_hist.add h (Rp_trace.now_ticks () - a);
      match r with
      | Some v when j < inp.n && v == Array.unsafe_get inp.vals j -> w.hits <- w.hits + 1
      | None when j >= inp.n -> w.misses <- w.misses + 1
      | _ -> w.bad <- w.bad + 1
    done;
    now := Rp_trace.now_ns ();
    if !now - !cut_t >= slice_ns || !now >= deadline then close_slice !now
  done;
  Atomic.set stop true;
  w.resizes <- w.resizes + Domain.join rd

let main ~workload ~seed ~seconds =
  let spec = Spec.find workload in
  let inp = input spec ~seed in
  let tpn = ticks_per_ns () in
  let reps = 5 in
  let w =
    {
      ops = [];
      cpu = [];
      lat = List.map (fun _ -> ref []) qs;
      hits = 0;
      misses = 0;
      bad = 0;
      resizes = 0;
      lookups_timed = 0;
    }
  in
  let setups = ref [] and missing = ref 0 in
  let valid = ref (Ok ()) in
  let ns = int_of_float (seconds *. 1e9 /. float_of_int reps) in
  for _ = 1 to reps do
    (* Each set-up starts from a compacted heap and builds a fresh table. *)
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let t = build inp in
    setups := (Unix.gettimeofday () -. t0) :: !setups;
    measure inp t ~ns w;
    let m, v = verify inp t in
    missing := !missing + m;
    if v <> Ok () then valid := v
  done;
  let ok = w.hits + w.misses in
  let us ticks = ticks /. tpn /. 1e3 in
  print_endline
    (json_obj
       ([
         ("correct", B (w.bad = 0 && !missing = 0 && !valid = Ok ()));
         ("validate", S (match !valid with Ok () -> "ok" | Error e -> e));
         ("attempted", I (ok + w.bad + (2 * inp.n * reps)));
         ("failed", I (w.bad + !missing));
         ("ops_per_s", F (median w.ops));
         ("cpu_us_per_op", F (median w.cpu));
       ]
      @ List.map2 (fun q l -> (Printf.sprintf "get_p%.0f_us" (q *. 100.), F (us (median !l)))) qs w.lat
      @ [
         ("get_n", I w.lookups_timed);
         ("hit_ratio", F (float_of_int w.hits /. float_of_int (ok + w.bad)));
         ("resizes_per_s", F (float_of_int w.resizes /. seconds));
         ("slices", I (List.length w.ops));
         ("peak_rss_mb", F (peak_rss_mb ()));
         ("setup_s", F (median !setups));
        ]))
