(* Windowed, pipelined load generator for the memcached text protocol.

   One thread drives [spec.conns] connections. Each connection keeps
   [spec.window] batches of [spec.batch] requests in flight: a new batch is
   written as soon as the oldest one is fully answered, so the server finds
   work queued whenever it looks and never waits to be woken. Requests are
   prepared during set-up (Spec.stream); replies are parsed and checked in
   place in each connection's read buffer. *)

open Common

type conn = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rlen : int;
  mutable rpos : int;
  slot_batch : int array;  (** in-flight batches, oldest at [head] *)
  slot_t0 : int array;  (** when each was written, ns *)
  mutable head : int;
  mutable tail : int;
  mutable answered : int;  (** replies parsed of the oldest batch *)
  mutable dead : bool;
}

(* Counters of one run of [drive]. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable gets : int;
  mutable hits : int;
  mutable sets : int;
  mutable ok_in_window : int;
  get_lat : Samples.t;
  set_lat : Samples.t;
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    gets = 0;
    hits = 0;
    sets = 0;
    ok_in_window = 0;
    get_lat = Samples.create (1 lsl 16);
    set_lat = Samples.create (1 lsl 16);
  }

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.001;
        go (tries - 1)
  in
  go 10_000

let open_conn path window =
  {
    fd = connect path;
    rbuf = Bytes.create (1 lsl 20);
    rlen = 0;
    rpos = 0;
    slot_batch = Array.make window 0;
    slot_t0 = Array.make window 0;
    head = 0;
    tail = 0;
    answered = 0;
    dead = false;
  }

let rec write_all fd buf off len =
  if len > 0 then
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)

let bytes_at buf off s =
  let n = String.length s in
  let rec go i = i >= n || (Bytes.unsafe_get buf (off + i) = String.unsafe_get s i && go (i + 1)) in
  go 0

let key_at buf off k =
  let ok = ref (bytes_at buf off "key:") and n = ref k in
  for d = key_digits - 1 downto 0 do
    if Bytes.unsafe_get buf (off + 4 + d) <> Char.unsafe_chr (48 + (!n mod 10))
    then ok := false;
    n := !n / 10
  done;
  !ok

(* Position of the CR of the first CRLF at or after [p], or -1. *)
let find_eol c p =
  let r = ref (-1) and j = ref p in
  while !r < 0 && !j < c.rlen - 1 do
    if Bytes.unsafe_get c.rbuf !j = '\r' && Bytes.unsafe_get c.rbuf (!j + 1) = '\n'
    then r := !j;
    incr j
  done;
  !r

(* The decimal number ending just before [eol] (the data length of a
   VALUE header), or -1. *)
let trailing_int buf eol =
  let j = ref (eol - 1) and v = ref 0 and scale = ref 1 in
  while !j >= 0 && Bytes.get buf !j >= '0' && Bytes.get buf !j <= '9' && !scale < 1_000_000_000 do
    v := !v + ((Char.code (Bytes.get buf !j) - 48) * !scale);
    scale := !scale * 10;
    decr j
  done;
  if !scale = 1 then -1 else !v

type reply = Incomplete | Stored | Hit | Miss | Bad

(* Parse the next reply in [c]'s buffer as the answer to op [i]. *)
let parse_reply (spec : Spec.t) (st : Spec.stream) hdr_tail c i =
  let p = c.rpos in
  let eol = find_eol c p in
  if eol < 0 then Incomplete
  else
    let line_len = eol - p in
    if Bytes.unsafe_get st.op_set i = '\001' then begin
      c.rpos <- eol + 2;
      if line_len = 6 && bytes_at c.rbuf p "STORED" then Stored else Bad
    end
    else if line_len = 3 && bytes_at c.rbuf p "END" then begin
      c.rpos <- eol + 2;
      Miss
    end
    else if line_len > 6 && bytes_at c.rbuf p "VALUE " then begin
      let len = trailing_int c.rbuf eol in
      let fin = eol + 2 + len + 7 in
      if len < 0 then begin
        c.rpos <- eol + 2;
        Bad
      end
      else if fin > c.rlen then Incomplete
      else begin
        let k = st.op_key.(i) in
        let ok =
          line_len = 6 + key_len + String.length hdr_tail
          && key_at c.rbuf (p + 6) k
          && bytes_at c.rbuf (p + 6 + key_len) hdr_tail
          && len = spec.value_len
          && value_ok c.rbuf (eol + 2) k len
          && bytes_at c.rbuf (eol + 2 + len) "\r\nEND\r\n"
        in
        c.rpos <- fin;
        if ok then Hit else Bad
      end
    end
    else begin
      c.rpos <- eol + 2;
      Bad
    end

type until = Ops of int | Time of int

(* Drive [conns] over [st] from batch [!cursor] on, until [until]: a
   count of ops written, or a deadline (ns). Latencies of successful ops
   are recorded when [record]; [at_deadline] runs once when a [Time]
   deadline is first seen, and [cut]'s function every [slice_ns] from
   [first_cut] on before it. Returns when every written batch is answered,
   its connection has died, or nothing arrives for 5 s. *)
let drive ?(cut = (max_int, 0, ignore)) (spec : Spec.t) (st : Spec.stream) conns
    cursor tl ~record ~until ~at_deadline =
  let first_cut, slice_ns, on_cut = cut in
  let next_cut = ref first_cut in
  let window = Array.length conns.(0).slot_batch in
  let hdr_tail = Printf.sprintf " 0 %d" spec.value_len in
  let sent = ref 0 and deadline_seen = ref false in
  let stopping now =
    match until with
    | Ops n -> !sent >= n
    | Time d ->
        if now >= d && not !deadline_seen then begin
          deadline_seen := true;
          at_deadline ()
        end;
        !deadline_seen
  in
  let send c =
    let b = !cursor in
    cursor := (b + 1) mod st.nbatches;
    let off = st.boff.(b) in
    let t = Rp_trace.now_ns () in
    let s = c.tail mod window in
    c.slot_batch.(s) <- b;
    c.slot_t0.(s) <- t;
    c.tail <- c.tail + 1;
    sent := !sent + st.batch;
    tl.attempted <- tl.attempted + st.batch;
    match write_all c.fd st.bytes off (st.boff.(b + 1) - off) with
    | () -> ()
    | exception Unix.Unix_error _ -> c.dead <- true
  in
  let fail_inflight c =
    tl.failed <- tl.failed + (((c.tail - c.head) * st.batch) - c.answered);
    c.head <- c.tail;
    c.answered <- 0
  in
  Array.iter
    (fun c ->
      for _ = 1 to window do
        if (not c.dead) && not (stopping (Rp_trace.now_ns ())) then send c
      done)
    conns;
  let live () = List.filter (fun c -> (not c.dead) && c.tail > c.head) (Array.to_list conns) in
  let deadline_of = match until with Time d -> d | Ops _ -> max_int in
  let rec loop () =
    match live () with
    | [] -> ()
    | cs ->
        let fds = List.map (fun c -> c.fd) cs in
        let ready, _, _ =
          try Unix.select fds [] [] 5.0 with Unix.Unix_error (Unix.EINTR, _, _) -> (fds, [], [])
        in
        if ready = [] then List.iter fail_inflight cs
        else begin
          List.iter
            (fun c ->
              if List.memq c.fd ready then begin
                let n =
                  try Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
                  | Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> -1
                  | Unix.Unix_error _ -> 0
                in
                if n = 0 then begin
                  c.dead <- true;
                  fail_inflight c
                end
                else if n > 0 then begin
                  c.rlen <- c.rlen + n;
                  let now = Rp_trace.now_ns () in
                  let in_window = now <= deadline_of in
                  let continue = ref true in
                  while !continue && c.tail > c.head do
                    let s = c.head mod window in
                    let b = c.slot_batch.(s) in
                    let i = (b * st.batch) + c.answered in
                    let k = st.op_key.(i) in
                    let r = parse_reply spec st hdr_tail c i in
                    if r = Incomplete then continue := false
                    else begin
                      let is_set = Bytes.unsafe_get st.op_set i = '\001' in
                      let good =
                        match r with
                        | Stored -> true
                        | Hit -> k < spec.keys
                        | Miss -> not (spec.strict && k < spec.keys)
                        | Bad | Incomplete -> false
                      in
                      if is_set then tl.sets <- tl.sets + 1
                      else begin
                        tl.gets <- tl.gets + 1;
                        if r = Hit then tl.hits <- tl.hits + 1
                      end;
                      if good then begin
                        if in_window then tl.ok_in_window <- tl.ok_in_window + 1;
                        if record && in_window then
                          Samples.add
                            (if is_set then tl.set_lat else tl.get_lat)
                            (now - c.slot_t0.(s))
                      end
                      else tl.failed <- tl.failed + 1;
                      c.answered <- c.answered + 1;
                      if c.answered = st.batch then begin
                        c.answered <- 0;
                        c.head <- c.head + 1;
                        if not (stopping (Rp_trace.now_ns ())) then send c
                      end
                    end
                  done;
                  if now >= !next_cut && now < deadline_of then begin
                    on_cut now;
                    next_cut := !next_cut + slice_ns
                  end;
                  let rest = c.rlen - c.rpos in
                  Bytes.blit c.rbuf c.rpos c.rbuf 0 rest;
                  c.rlen <- rest;
                  c.rpos <- 0;
                  if c.rlen = Bytes.length c.rbuf then begin
                    c.dead <- true;
                    fail_inflight c
                  end
                end
              end)
            cs;
          loop ()
        end
  in
  loop ();
  Array.iter (fun c -> if c.dead then fail_inflight c) conns

(* A separate connection for `stats` queries at the window's edges. *)
let stats fd cmd =
  write_all fd (Bytes.of_string (cmd ^ "\r\n")) 0 (String.length cmd + 2);
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let ends_with_end () =
    let n = Buffer.length buf in
    n >= 5 && Buffer.sub buf (n - 5) 5 = "END\r\n"
  in
  while not (ends_with_end ()) do
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n = 0 then failwith "stats: connection closed";
    Buffer.add_subbytes buf chunk 0 n
  done;
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' (String.trim l) with
      | [ "STAT"; k; v ] -> Some (k, v)
      | _ -> None)
    (String.split_on_char '\n' (Buffer.contents buf))

let stat_f kv k = match List.assoc_opt k kv with Some v -> float_of_string v | None -> 0.

(* CPU time (user + system) of every thread of [pid], ns, from schedstat. *)
let runtime_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc t ->
      match read_lines (Filename.concat (Filename.concat dir t) "schedstat") with
      | l :: _ -> acc + int_of_string (List.hd (String.split_on_char ' ' l))
      | [] | (exception Sys_error _) -> acc)
    0 (Sys.readdir dir)

let pct_of (s : Samples.t) lo hi q =
  let a = Array.sub s.a lo (hi - lo) in
  Array.sort compare a;
  float_of_int (Samples.pct a q)

(* Edge of a measured slice: time, ops answered, latency samples taken
   and server CPU, all counted from the window's start. *)
type edge = { t : int; ops : int; gn : int; sn : int; cpu : int }

let slice_ns = 1_000_000_000

let edge_of tl ~cpu t = { t; ops = tl.ok_in_window; gn = tl.get_lat.n; sn = tl.set_lat.n; cpu }

(* Run [go] with a cut every [slice_ns]; [go] returns when and at what
   CPU reading its measured part ended. Returns the slices' edges. *)
let sliced tl ~cpu go =
  let t0 = Rp_trace.now_ns () in
  let edges = ref [ edge_of tl ~cpu:(cpu ()) t0 ] in
  let t, c = go ~cut:(t0 + slice_ns, slice_ns, fun t -> edges := edge_of tl ~cpu:(cpu ()) t :: !edges) in
  List.rev (edge_of tl ~cpu:c t :: !edges)

(* Per-slice rates and percentiles, which run.py pools over every
   set-up's window and reports as medians, so that a burst of outside
   load in one slice does not move a run's figures. *)
let slice_fields (tl : tally) edges =
  let rec pairs = function a :: (b :: _ as r) -> (a, b) :: pairs r | _ -> [] in
  let ps = pairs edges in
  let per f = L (List.filter_map f ps) in
  let lat name (s : Samples.t) n =
    let pct q (a, b) = if n b - n a >= 1000 then Some (pct_of s (n a) (n b) q) else None in
    [
      (name ^ "_p50_ns", per (pct 0.5));
      (name ^ "_p90_ns", per (pct 0.9));
      (name ^ "_p99_ns", per (pct 0.99));
      (name ^ "_n", I s.n);
    ]
  in
  [
    ("ops_per_s", per (fun (a, b) -> Some (float_of_int (b.ops - a.ops) *. 1e9 /. float_of_int (b.t - a.t))));
    ( "cpu_us_per_op",
      per (fun (a, b) ->
          if b.ops > a.ops then Some (float_of_int (b.cpu - a.cpu) /. 1e3 /. float_of_int (b.ops - a.ops))
          else None) );
  ]
  @ lat "get" tl.get_lat (fun e -> e.gn)
  @ lat "set" tl.set_lat (fun e -> e.sn)

(* Prefill, then warm up in chunks of the workload's traffic until the
   share of SETs that evict levels off. *)
let setup (spec : Spec.t) conns ctl run_st cursor =
  let pre = Spec.prefill_stream spec ~batch:32 in
  let fill = tally () and warm = tally () in
  drive spec pre conns (ref 0) fill ~record:false ~until:(Ops (pre.nbatches * 32)) ~at_deadline:ignore;
  let chunks = ref 0 and last = ref (-1.) and level = ref false and rates = ref [] in
  let evictions () = stat_f (stats ctl "stats") "evictions" in
  let e0 = ref (evictions ()) in
  while (not !level) && !chunks < 30 do
    let sets0 = warm.sets in
    drive spec run_st conns cursor warm ~record:false ~until:(Ops spec.warmup_chunk)
      ~at_deadline:ignore;
    incr chunks;
    let e1 = evictions () in
    let rate = (e1 -. !e0) /. float_of_int (max 1 (warm.sets - sets0)) in
    e0 := e1;
    rates := rate :: !rates;
    if !chunks >= spec.warmup_min
       && (spec.set_share = 0. || Float.abs (rate -. !last) <= 0.05 *. Float.max !last 0.01)
    then level := true;
    last := rate
  done;
  ([ fill; warm ], List.rev !rates)

let deltas k0 k1 keys = List.map (fun k -> (k, F (stat_f k1 k -. stat_f k0 k))) keys

let main ~workload ~socket ~seed ~seconds ~server_pid =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let spec = Spec.find workload in
  let run_st = Spec.run_stream spec ~seed in
  let conns = Array.init spec.conns (fun _ -> open_conn socket spec.window) in
  let ctl = connect socket in
  let cursor = ref 0 in
  let phases, rates = setup spec conns ctl run_st cursor in
  let sum f = List.fold_left (fun a p -> a + f p) 0 phases in
  print_endline
    ("ready "
    ^ json_obj
        [
          ("setup_attempted", I (sum (fun p -> p.attempted)));
          ("setup_failed", I (sum (fun p -> p.failed)));
          ("warmup_evictions_per_set", L rates);
        ]);
  if seconds > 0. then begin
    let k0 = stats ctl "stats" in
    let tl = tally () in
    let u0, s0 = proc_cpu server_pid and g0 = self_cpu () in
    let cpu_end = ref (u0, s0, g0) in
    let edges =
      sliced tl ~cpu:(fun () -> runtime_ns server_pid) (fun ~cut ->
          let t0 = Rp_trace.now_ns () and stop = ref (0, 0) in
          drive ~cut spec run_st conns cursor tl ~record:true
            ~until:(Time (t0 + int_of_float (seconds *. 1e9)))
            ~at_deadline:(fun () ->
              stop := (Rp_trace.now_ns (), runtime_ns server_pid);
              let u, s = proc_cpu server_pid in
              cpu_end := (u, s, self_cpu ()));
          !stop)
    in
    let u1, s1, g1 = !cpu_end in
    let first = List.hd edges and last = List.nth edges (List.length edges - 1) in
    let k1 = stats ctl "stats" in
    let guard = stats ctl "stats guard" in
    let shed = int_of_float (stat_f guard "guard_shed_total") in
    print_endline
      (json_obj
         ([
            ("attempted", I tl.attempted);
            ("failed", I (tl.failed + shed));
            ("guard_shed_total", I shed);
            ("ok_in_window", I tl.ok_in_window);
            ("window_s", F (float_of_int (last.t - first.t) /. 1e9));
            ("server_cpu_s", F (float_of_int (last.cpu - first.cpu) /. 1e9));
            ("server_user_s", F (u1 -. u0));
            ("server_sys_s", F (s1 -. s0));
            ("gen_cpu_s", F (g1 -. g0));
            ("gets", I tl.gets);
            ("hits", I tl.hits);
            ("sets", I tl.sets);
          ]
         @ slice_fields tl edges
         @ deltas k0 k1
             [
               "server_worker_wakeups_total";
               "server_read_syscalls_total";
               "server_write_syscalls_total";
               "server_batch_requests_sum";
               "cmd_get";
               "cmd_set";
               "evictions";
               "clock_second_chances";
             ]
         @ [ ("curr_items", F (stat_f k1 "curr_items")); ("bytes", F (stat_f k1 "bytes")) ]))
  end;
  Array.iter (fun c -> Unix.close c.fd) conns;
  Unix.close ctl
