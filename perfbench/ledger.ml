(* The traced run's in-process stages. Each replays the workload's
   requests through one layer, with a span recorded around every call into
   that layer's public functions:

   Rp_ht (and its RCU flavour) -> Store -> Protocol -> Dispatch -> Conn
   over a socketpair.

   The full server, the last layer, is driven by run.py with the load
   generator. The spans stay in memory; each stage's figures are read
   from them when it ends. *)

open Common
module Store = Memcached.Store
module Protocol = Memcached.Protocol

let r = Span.create ()
let id = Span.id

type stage = { tpn : float; out : (string * jv) list ref; mutable failed : int; mutable attempted : int }

let mean_ns st name =
  match Span.summary r ~ticks_per_ns:st.tpn name with
  | Some a when a.count > 0 -> a.dur /. float_of_int a.count
  | _ -> 0.

(* Total duration (ns) and items of every span called [name]. *)
let total st name =
  match Span.summary r ~ticks_per_ns:st.tpn name with
  | Some a -> (a.dur, a.items)
  | None -> (0., 0)

let emit st k v = st.out := (k, F v) :: !(st.out)
let ratio a b = if b = 0. then 0. else a /. b

(* A measured loop goes on while it is within its share of the time and
   has recorded fewer than [calls] spans, so no stage outgrows the span
   buffer. *)
let within ?(calls = 100_000) budget =
  let t0 = Rp_trace.now_ns () and n0 = r.n in
  fun () -> float_of_int (Rp_trace.now_ns () - t0) /. 1e9 < budget && r.n - n0 < calls

(* Rp_ht and RCU: inserts and removes of absent keys, the workload's
   lookups, then resizes while a second domain keeps looking up. *)
let rp_ht st (spec : Spec.t) ~seed ~seconds =
  let inp = Table.input spec ~seed in
  let t = Table.build inp in
  let n = inp.n in
  let k_ins = id "rp_ht.insert" and k_rem = id "rp_ht.remove" in
  let probes = min n 20_000 in
  for j = n to n + probes - 1 do
    let i = Span.enter r k_ins in
    Rp_ht.insert t inp.keys.(j) inp.keys.(j);
    Span.leave r i k_ins 1
  done;
  for j = n to n + probes - 1 do
    let i = Span.enter r k_rem in
    let removed = Rp_ht.remove t inp.keys.(j) in
    Span.leave r i k_rem 1;
    if not removed then st.failed <- st.failed + 1
  done;
  let k_find = id "rp_ht.find" and k_hit = id "rp_ht.find_hit" and k_miss = id "rp_ht.find_miss" in
  let lookups = min (Array.length inp.lookups) 200_000 in
  for x = 0 to lookups - 1 do
    let j = inp.lookups.(x) in
    let i = Span.enter r k_find in
    let found = Rp_ht.find t inp.keys.(j) in
    Span.leave r i (if found = None then k_miss else k_hit) 1;
    match found with
    | Some v when j < n && v == inp.vals.(j) -> ()
    | None when j >= n -> ()
    | _ -> st.failed <- st.failed + 1
  done;
  st.attempted <- st.attempted + (2 * probes) + lookups;
  let rcu = Rp_ht.rcu t in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let bad = ref 0 and x = ref 0 and mask = Array.length inp.lookups - 1 in
        while not (Atomic.get stop) do
          let j = inp.lookups.(!x land mask) in
          incr x;
          match Rp_ht.find t inp.keys.(j) with
          | Some v when j < n && v == inp.vals.(j) -> ()
          | None when j >= n -> ()
          | _ -> incr bad
        done;
        !bad)
  in
  let k_exp = id "rp_ht.expand" and k_shr = id "rp_ht.shrink" and k_sync = id "rcu.synchronize" in
  let s0 = Rp_ht.resize_stats t in
  let gps = ref 0 and resizes = ref 0 and resize_ns = ref 0 in
  let resize k size =
    let g0 = (Rcu.stats rcu).grace_periods and a = Rp_trace.now_ns () in
    let i = Span.enter r k in
    Rp_ht.resize t size;
    Span.leave r i k 1;
    resize_ns := !resize_ns + (Rp_trace.now_ns () - a);
    gps := !gps + ((Rcu.stats rcu).grace_periods - g0);
    incr resizes
  in
  let go = within seconds in
  while !resizes < 4 || go () do
    resize k_exp (2 * n);
    resize k_shr n;
    for _ = 1 to 3 do
      let i = Span.enter r k_sync in
      Rcu.synchronize rcu;
      Span.leave r i k_sync 1
    done
  done;
  Atomic.set stop true;
  st.failed <- st.failed + Domain.join reader;
  let s1 = Rp_ht.resize_stats t in
  let expands = float_of_int (s1.expands - s0.expands) in
  (match Rp_ht.validate t with Ok () -> () | Error _ -> st.failed <- st.failed + 1);
  emit st "rp_ht.find_hit_ns" (mean_ns st "rp_ht.find_hit");
  emit st "rp_ht.find_miss_ns" (mean_ns st "rp_ht.find_miss");
  emit st "rp_ht.insert_ns" (mean_ns st "rp_ht.insert");
  emit st "rp_ht.remove_ns" (mean_ns st "rp_ht.remove");
  emit st "rp_ht.expand_ms" (mean_ns st "rp_ht.expand" /. 1e6);
  emit st "rp_ht.shrink_ms" (mean_ns st "rp_ht.shrink" /. 1e6);
  emit st "rp_ht.unzip_passes_per_expand"
    (ratio (float_of_int (s1.unzip_passes - s0.unzip_passes)) expands);
  emit st "rp_ht.unzip_splices_per_expand"
    (ratio (float_of_int (s1.unzip_splices - s0.unzip_splices)) expands);
  emit st "rp_ht.resizes_per_s" (float_of_int !resizes *. 1e9 /. float_of_int !resize_ns);
  emit st "rcu.synchronize_us" (mean_ns st "rcu.synchronize" /. 1e3);
  emit st "rcu.grace_periods_per_resize" (ratio (float_of_int !gps) (float_of_int !resizes))

let new_store ~memory_mb =
  Store.create ~backend:Store.Rp ~rcu_mode:Store.Qsbr ~max_bytes:(memory_mb * 1024 * 1024) ()

let stat_of store k =
  match List.assoc_opt k (Store.stats store) with Some v -> float_of_string v | None -> 0.

(* One timed SET: named by whether it made the store evict. *)
let timed_set store ~k_set ~k_evict ~words key data =
  let e0 = Store.evictions store in
  let i = Span.enter r k_set in
  let w0 = Gc.minor_words () in
  let res = Store.set store ~key ~flags:0 ~exptime:0 ~data in
  let w = Gc.minor_words () -. w0 in
  let evicted = Store.evictions store > e0 in
  Span.leave r i (if evicted then k_evict else k_set) 1;
  words := !words +. w;
  res = Store.Stored

(* Store: the prefill's SETs, then the workload's batches (GETs through
   get_many, SETs one by one). A workload whose cache never fills also
   SETs fresh keys into a 4 MiB store, so a SET that evicts is timed. *)
let store st (spec : Spec.t) ~seed ~seconds ~memory_mb =
  let s = new_store ~memory_mb in
  let k_set = id "store.set" and k_evict = id "store.set_evict" and k_get = id "store.get_many" in
  let set_words = ref 0. and get_words = ref 0. in
  let set s i =
    if not (timed_set s ~k_set ~k_evict ~words:set_words (key_of i) (value_of i spec.value_len))
    then st.failed <- st.failed + 1
  in
  for i = 0 to spec.prefill - 1 do
    set s i
  done;
  let run = Spec.run_stream spec ~seed in
  let sets = ref 0 and gets = ref 0 in
  let e0 = Store.evictions s and c0 = stat_of s "clock_second_chances" in
  let go = within seconds ~calls:150_000 and b = ref 0 in
  while !b < run.nbatches && go () do
    let keys = ref [] and nget = ref 0 in
    for x = (!b * run.batch) + run.batch - 1 downto !b * run.batch do
      if Bytes.get run.op_set x = '\001' then begin
        set s run.op_key.(x);
        incr sets
      end
      else begin
        keys := key_of run.op_key.(x) :: !keys;
        incr nget
      end
    done;
    if !nget > 0 then begin
      let keys = !keys in
      let i = Span.enter r k_get in
      let w0 = Gc.minor_words () in
      let vs = Store.get_many s keys in
      let w = Gc.minor_words () -. w0 in
      Span.leave r i k_get !nget;
      get_words := !get_words +. w;
      gets := !gets + !nget;
      if spec.strict && spec.miss_share = 0. && List.length vs <> !nget then
        st.failed <- st.failed + 1
    end;
    incr b
  done;
  let evictions = float_of_int (Store.evictions s - e0) in
  let chances = stat_of s "clock_second_chances" -. c0 in
  emit st "slab.bytes_per_item" (ratio (float_of_int (Store.bytes s)) (float_of_int (Store.items s)));
  emit st "slab.fragmentation" (Store.fragmentation s);
  emit st "store.evictions_per_set" (ratio evictions (float_of_int !sets));
  let evict_chances =
    if Span.summary r ~ticks_per_ns:st.tpn "store.set_evict"
       |> Option.fold ~none:0 ~some:(fun (a : Span.agg) -> a.count)
       >= 2000
    then ratio chances evictions
    else begin
      let small = new_store ~memory_mb:4 in
      let j = ref spec.keys and e0 = Store.evictions small in
      let c0 = stat_of small "clock_second_chances" in
      while Store.evictions small - e0 < 2000 && !j < spec.keys + 200_000 do
        set small !j;
        incr j
      done;
      ratio (stat_of small "clock_second_chances" -. c0) (float_of_int (Store.evictions small - e0))
    end
  in
  let set_ns, set_n = total st "store.set" and ev_ns, ev_n = total st "store.set_evict" in
  let get_ns, get_n = total st "store.get_many" in
  emit st "store.second_chances_per_eviction" evict_chances;
  emit st "store.set_ns" (ratio set_ns (float_of_int set_n));
  emit st "store.set_evict_ns" (ratio ev_ns (float_of_int ev_n));
  emit st "store.minor_words_per_set" (ratio !set_words (float_of_int (set_n + ev_n)));
  emit st "store.get_many_ns_per_key" (ratio get_ns (float_of_int get_n));
  emit st "store.minor_words_per_get" (ratio !get_words (float_of_int get_n));
  st.attempted <- st.attempted + spec.prefill + !sets + !gets;
  Store.reader_offline s

(* The bytes of batch [b] of [st]. *)
let batch_bytes (s : Spec.stream) b = Bytes.sub_string s.bytes s.boff.(b) (s.boff.(b + 1) - s.boff.(b))

(* Protocol: parse the prefill's SETs and the workload's requests; encode
   a VALUE reply for each GET. *)
let protocol st (spec : Spec.t) ~seed ~seconds =
  let k_next = id "protocol.next" and k_get = id "protocol.parse_get" and k_set = id "protocol.parse_set" in
  let k_enc = id "protocol.encode_value" in
  let parse (stream : Spec.stream) budget =
    let p = Protocol.Parser.create () and go = within budget and b = ref 0 in
    while !b < stream.nbatches && go () do
      Protocol.Parser.feed p (batch_bytes stream !b);
      let again = ref true in
      while !again do
        let i = Span.enter r k_next in
        match Protocol.Parser.next p with
        | Some (Ok (Protocol.Get _)) -> Span.leave r i k_get 1
        | Some (Ok (Protocol.Set _)) -> Span.leave r i k_set 1
        | Some _ ->
            Span.leave r i k_next 1;
            st.failed <- st.failed + 1
        | None ->
            Span.leave r i k_next 0;
            again := false
      done;
      incr b
    done
  in
  parse (Spec.prefill_stream spec ~batch:32) (seconds /. 3.);
  let run = Spec.run_stream spec ~seed in
  parse run (seconds /. 3.);
  let buf = Buffer.create 65536 and go = within (seconds /. 3.) and x = ref 0 in
  while !x < Array.length run.op_key && go () do
    let k = run.op_key.(!x) in
    let reply =
      Protocol.Values [ { vkey = key_of k; vflags = 0; vdata = value_of k spec.value_len; vcas = None } ]
    in
    let i = Span.enter r k_enc in
    Protocol.encode_response_into buf reply;
    Span.leave r i k_enc 1;
    if Buffer.length buf > 32768 then Buffer.clear buf;
    incr x
  done;
  emit st "protocol.parse_get_ns" (mean_ns st "protocol.parse_get");
  emit st "protocol.parse_set_ns" (mean_ns st "protocol.parse_set");
  emit st "protocol.encode_value_ns" (mean_ns st "protocol.encode_value")

(* The parsed requests of a stream's batches. *)
let requests (s : Spec.stream) b =
  let p = Protocol.Parser.create () in
  Protocol.Parser.feed p (batch_bytes s b);
  let rec go acc =
    match Protocol.Parser.next p with Some (Ok q) -> go (q :: acc) | _ -> List.rev acc
  in
  go []

(* Dispatch: the prefill's SETs, then the workload's requests, each
   handled on a store as the server would. *)
let dispatch st (spec : Spec.t) ~seed ~seconds ~memory_mb =
  let s = new_store ~memory_mb in
  let k_h = id "dispatch.handle" and k_get = id "dispatch.handle_get" and k_set = id "dispatch.handle_set" in
  let handle q =
    let name = match q with Protocol.Get _ -> k_get | Protocol.Set _ -> k_set | _ -> k_h in
    let i = Span.enter r k_h in
    let resp = Memcached.Dispatch.handle s q in
    Span.leave r i name 1;
    match (q, resp) with
    | Protocol.Set _, Some Protocol.Stored | Protocol.Get _, Some (Protocol.Values _) -> ()
    | _ -> st.failed <- st.failed + 1
  in
  let replay (stream : Spec.stream) go =
    let b = ref 0 in
    while !b < stream.nbatches && go () do
      List.iter handle (requests stream !b);
      incr b
    done
  in
  replay (Spec.prefill_stream spec ~batch:32) (fun () -> true);
  replay (Spec.run_stream spec ~seed) (within seconds ~calls:150_000);
  emit st "dispatch.handle_get_ns" (mean_ns st "dispatch.handle_get");
  emit st "dispatch.handle_set_ns" (mean_ns st "dispatch.handle_set");
  Store.reader_offline s

(* Conn: one event-loop connection over a socketpair. The benchmark
   writes a batch to its end, then fill, dispatch and flush run on the
   other, and the benchmark reads the replies back. *)
let conn st (spec : Spec.t) ~seed ~seconds ~memory_mb =
  let s = new_store ~memory_mb in
  for i = 0 to spec.prefill - 1 do
    ignore (Store.set s ~key:(key_of i) ~flags:0 ~exptime:0 ~data:(value_of i spec.value_len))
  done;
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock server;
  Unix.set_nonblock client;
  let c =
    Memcached.Conn.create ~id:1 ~buffer_size:Memcached.Server.default_config.read_buffer_size
      ~reads:(Rp_obs.Counter.create ()) ~writes:(Rp_obs.Counter.create ()) server
  in
  let k_fill = id "conn.fill" and k_disp = id "conn.dispatch" and k_flush = id "conn.flush" in
  let run = Spec.run_stream spec ~seed in
  let sink = Bytes.create (1 lsl 20) in
  let words = ref 0. and reqs = ref 0 in
  let rec drain () =
    match Memcached.Conn.flush c with
    | `Want_write ->
        ignore (Unix.read client sink 0 (Bytes.length sink));
        drain ()
    | `Done | `Closed -> ()
  in
  let go = within seconds and b = ref 0 in
  while !b < run.nbatches && go () do
    let off = run.boff.(!b) in
    ignore (Unix.write client run.bytes off (run.boff.(!b + 1) - off));
    let w0 = Gc.minor_words () in
    let i = Span.enter r k_fill in
    ignore (Memcached.Conn.fill c);
    Span.leave r i k_fill 0;
    let i = Span.enter r k_disp in
    let n = Memcached.Conn.dispatch c s in
    Span.leave r i k_disp n;
    let i = Span.enter r k_flush in
    drain ();
    Span.leave r i k_flush 0;
    words := !words +. (Gc.minor_words () -. w0);
    reqs := !reqs + n;
    if n <> run.batch then st.failed <- st.failed + 1;
    (try
       while Unix.read client sink 0 (Bytes.length sink) > 0 do
         ()
       done
     with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    incr b
  done;
  Unix.close client;
  Unix.close server;
  st.attempted <- st.attempted + !reqs;
  let per name = ratio (fst (total st name)) (float_of_int !reqs) in
  emit st "conn.fill_ns_per_req" (per "conn.fill");
  emit st "conn.dispatch_ns_per_req" (per "conn.dispatch");
  emit st "conn.flush_ns_per_req" (per "conn.flush");
  emit st "conn.minor_words_per_req" (ratio !words (float_of_int !reqs));
  Store.reader_offline s

(* What a span adds to each duration it records: the mean of empty spans.
   Every per-call ns figure above includes it once per span. *)
let empty_span st =
  let k = id "trace.empty" in
  for _ = 1 to 100_000 do
    Span.leave r (Span.enter r k) k 0
  done;
  emit st "trace.empty_span_ns" (mean_ns st "trace.empty")

let main ~workload ~seed ~seconds ~memory_mb =
  let spec = Spec.find workload in
  let st = { tpn = ticks_per_ns (); out = ref []; failed = 0; attempted = 0 } in
  let stage f share =
    Span.reset r;
    f (seconds *. share)
  in
  stage (fun _ -> empty_span st) 0.;
  stage (fun s -> rp_ht st spec ~seed ~seconds:s) 0.35;
  stage (fun s -> store st spec ~seed ~seconds:s ~memory_mb) 0.2;
  stage (fun s -> protocol st spec ~seed ~seconds:s) 0.15;
  stage (fun s -> dispatch st spec ~seed ~seconds:s ~memory_mb) 0.15;
  stage (fun s -> conn st spec ~seed ~seconds:s ~memory_mb) 0.15;
  print_endline
    (json_obj
       ([
          ("correct", B (st.failed = 0));
          ("attempted", I st.attempted);
          ("failed", I st.failed);
          ("spans_dropped", I r.dropped);
        ]
       @ List.rev !(st.out)))
