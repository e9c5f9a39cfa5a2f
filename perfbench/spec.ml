(* The workloads' fixed parameters. The server flags that go with each
   socket workload live in run.py. *)

type t = {
  name : string;
  keys : int;  (** key universe stored by the workload: 0 .. keys-1 *)
  prefill : int;  (** keys 0 .. prefill-1 are SET during set-up *)
  miss_keys : int;  (** keys keys .. keys+miss_keys-1 are never stored *)
  value_len : int;
  set_share : float;
  miss_share : float;  (** share of GETs aimed at never-stored keys *)
  zipf : float;  (** key popularity exponent; 0 = uniform *)
  strict : bool;  (** a GET of a stored key must hit (nothing is evicted) *)
  batch : int;  (** requests per pipelined batch *)
  window : int;  (** batches in flight per connection *)
  conns : int;
  stream_ops : int;  (** length of the prepared, cycled request stream *)
  warmup_chunk : int;  (** mixed ops per warm-up chunk *)
  warmup_min : int;  (** warm-up chunks before the level-off test *)
}

(* Read-mostly cache traffic: every key fits the default 64 MB budget. *)
let get_pipelined =
  {
    name = "get_pipelined";
    keys = 100_000;
    prefill = 100_000;
    miss_keys = 0;
    value_len = 100;
    set_share = 0.;
    miss_share = 0.;
    zipf = 0.;
    strict = true;
    batch = 32;
    window = 12;
    conns = 2;
    stream_ops = 1 lsl 20;
    warmup_chunk = 50_000;
    warmup_min = 1;
  }

(* Writes next to reads into a cache about a quarter the size of the key
   set (run with -m 32), prefilled in popularity order to the budget. *)
let set_evict_mix =
  {
    name = "set_evict_mix";
    keys = 500_000;
    prefill = 90_000;
    miss_keys = 0;
    value_len = 256;
    set_share = 0.5;
    miss_share = 0.;
    zipf = 0.99;
    strict = false;
    batch = 8;
    window = 32;
    conns = 2;
    stream_ops = 1 lsl 18;
    warmup_chunk = 60_000;
    warmup_min = 3;
  }

(* The in-process table workload: 2^18 resident keys (the resizer flips
   between 2^18 and 2^19 buckets) and 10% lookups of absent keys. Its
   request stream, replayed through the cache layers in the traced run,
   is GETs of the same keys with small values. *)
let table_resize =
  {
    name = "table_resize";
    keys = 1 lsl 18;
    prefill = 1 lsl 18;
    miss_keys = 1 lsl 18;
    value_len = 16;
    set_share = 0.;
    miss_share = 0.1;
    zipf = 0.;
    strict = true;
    batch = 32;
    window = 4;
    conns = 2;
    stream_ops = 1 lsl 20;
    warmup_chunk = 50_000;
    warmup_min = 1;
  }

let all = [ get_pipelined; set_evict_mix; table_resize ]

let find name =
  match List.find_opt (fun s -> s.name = name) all with
  | Some s -> s
  | None -> invalid_arg ("unknown workload " ^ name)

(* The prepared request stream: ops with their keys, grouped in batches
   whose request bytes lie back to back in one buffer. *)
type stream = {
  op_key : int array;
  op_set : Bytes.t;  (** '\001' marks a SET *)
  bytes : Bytes.t;
  boff : int array;  (** batch [b] is bytes [boff.(b)] .. [boff.(b+1) - 1] *)
  batch : int;
  nbatches : int;
}

let set_header spec = Printf.sprintf " 0 0 %d\r\n" spec.value_len

let stream_of spec ~batch op_key op_set =
  let n = Array.length op_key in
  let nb = n / batch in
  let hdr = set_header spec in
  let get_len = 4 + Common.key_len + 2 in
  let set_len = 4 + Common.key_len + String.length hdr + spec.value_len + 2 in
  let size = ref 0 in
  for i = 0 to (nb * batch) - 1 do
    size := !size + if Bytes.get op_set i = '\001' then set_len else get_len
  done;
  let bytes = Bytes.create !size and boff = Array.make (nb + 1) 0 in
  let pos = ref 0 in
  let put s =
    Bytes.blit_string s 0 bytes !pos (String.length s);
    pos := !pos + String.length s
  in
  for i = 0 to (nb * batch) - 1 do
    if i mod batch = 0 then boff.(i / batch) <- !pos;
    let k = op_key.(i) in
    if Bytes.get op_set i = '\001' then begin
      put "set ";
      Common.write_key bytes !pos k;
      pos := !pos + Common.key_len;
      put hdr;
      Common.write_value bytes !pos k spec.value_len;
      pos := !pos + spec.value_len;
      put "\r\n"
    end
    else begin
      put "get ";
      Common.write_key bytes !pos k;
      pos := !pos + Common.key_len;
      put "\r\n"
    end
  done;
  boff.(nb) <- !pos;
  { op_key; op_set; bytes; boff; batch; nbatches = nb }

(* SETs of keys 0 .. prefill-1, most popular first. *)
let prefill_stream spec ~batch =
  let n = spec.prefill / batch * batch in
  stream_of spec ~batch (Array.init n Fun.id) (Bytes.make n '\001')

(* The random streams of [seed]: [part] 0 draws the request stream, 1 the
   table's insertion order and lookups. *)
let prng ~seed part = Rp_workload.Prng.split (Rp_workload.Prng.create ~seed) part

(* Stored keys by popularity: Zipf ranks, or uniform when [zipf] is 0. *)
let rank_sampler spec rng =
  if spec.zipf = 0. then fun () -> Rp_workload.Prng.below rng spec.keys
  else
    let z = Rp_workload.Zipf.create ~theta:spec.zipf ~n:spec.keys () in
    fun () -> Rp_workload.Zipf.sample z rng

(* The workload's own traffic, drawn from [seed]. *)
let run_stream spec ~seed =
  let rng = prng ~seed 0 in
  let rank = rank_sampler spec rng in
  let n = spec.stream_ops / spec.batch * spec.batch in
  let op_key = Array.make n 0 and op_set = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    if Rp_workload.Prng.float rng < spec.set_share then begin
      Bytes.set op_set i '\001';
      op_key.(i) <- rank ()
    end
    else if spec.miss_keys > 0 && Rp_workload.Prng.float rng < spec.miss_share
    then op_key.(i) <- spec.keys + Rp_workload.Prng.below rng spec.miss_keys
    else op_key.(i) <- rank ()
  done;
  stream_of spec ~batch:spec.batch op_key op_set
