(* Shared pieces of the benchmark programs: the key/value scheme, clocks,
   sample sets, /proc readers and a tiny JSON writer. *)

(* Keys are "key:" plus seven digits; the value stored under key [i] is the
   seven digits again (its tag) followed by a filler that depends on [i],
   so a reader can check any value against its key without a table. *)
let key_digits = 7
let key_len = 4 + key_digits

let write_key buf off i =
  Bytes.blit_string "key:" 0 buf off 4;
  let n = ref i in
  for d = key_digits - 1 downto 0 do
    Bytes.unsafe_set buf (off + 4 + d) (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done

let key_of i =
  let b = Bytes.create key_len in
  write_key b 0 i;
  Bytes.unsafe_to_string b

let filler i j = Char.unsafe_chr (97 + ((i + j) mod 26))

let write_value buf off i len =
  let n = ref i in
  for d = min len key_digits - 1 downto 0 do
    Bytes.unsafe_set buf (off + d) (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  for j = key_digits to len - 1 do
    Bytes.unsafe_set buf (off + j) (filler i j)
  done

let value_of i len =
  let b = Bytes.create len in
  write_value b 0 i len;
  Bytes.unsafe_to_string b

(* [value_ok buf off i len]: the [len] bytes at [off] are key [i]'s value. *)
let value_ok buf off i len =
  let ok = ref true and n = ref i in
  for d = min len key_digits - 1 downto 0 do
    if Bytes.unsafe_get buf (off + d) <> Char.unsafe_chr (48 + (!n mod 10))
    then ok := false;
    n := !n / 10
  done;
  let j = ref key_digits in
  while !ok && !j < len do
    if Bytes.unsafe_get buf (off + !j) <> filler i !j then ok := false;
    incr j
  done;
  !ok

(* Cycle-counter calibration: ticks per nanosecond over a short sleep. *)
let ticks_per_ns () =
  let t0 = Rp_trace.now_ticks () and n0 = Rp_trace.now_ns () in
  Unix.sleepf 0.05;
  let t1 = Rp_trace.now_ticks () and n1 = Rp_trace.now_ns () in
  float_of_int (t1 - t0) /. float_of_int (n1 - n0)

(* A growable set of integer samples (latencies in ns or ticks). *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max 16 cap) 0; n = 0 }

  let add s v =
    if s.n = Array.length s.a then begin
      let a = Array.make (2 * s.n) 0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    Array.unsafe_set s.a s.n v;
    s.n <- s.n + 1

  (* Sorted copy; percentiles read from it by rank. *)
  let sorted s =
    let a = Array.sub s.a 0 s.n in
    Array.sort compare a;
    a

  let pct sorted q =
    let n = Array.length sorted in
    if n = 0 then 0
    else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))
end

(* Exact counts of small tick values, with overflow kept as samples: a
   per-operation histogram with no quantization and no per-sample store. *)
module Tick_hist = struct
  let width = 1 lsl 16

  type t = { counts : int array; over : Samples.t; mutable n : int }

  let create () = { counts = Array.make width 0; over = Samples.create 1024; n = 0 }

  let add h v =
    let v = if v < 0 then 0 else v in
    if v < width then
      Array.unsafe_set h.counts v (Array.unsafe_get h.counts v + 1)
    else Samples.add h.over v;
    h.n <- h.n + 1

  (* The value of rank [q * n], in ticks. *)
  let pct h q =
    let target = min (h.n - 1) (int_of_float (q *. float_of_int h.n)) in
    let acc = ref 0 and i = ref 0 in
    while !i < width && !acc + h.counts.(!i) <= target do
      acc := !acc + h.counts.(!i);
      incr i
    done;
    if !i < width then !i
    else
      let s = Samples.sorted h.over in
      s.(min (Array.length s - 1) (target - !acc))

  let clear h =
    Array.fill h.counts 0 width 0;
    h.over.n <- 0;
    h.n <- 0

  (* Close a slice: its percentiles [qs] join their lists [ls] when it
     holds at least 1000 samples; the histogram starts over. *)
  let close_slice h qs ls =
    if h.n >= 1000 then
      List.iter2 (fun q l -> l := float_of_int (pct h q) :: !l) qs ls;
    clear h
end

(* /proc readers. *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let clk_tck = 100.

(* user and system CPU seconds of process [pid] (fields 14 and 15 of
   /proc/<pid>/stat, counted after the parenthesised command name). *)
let proc_cpu pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | l :: _ ->
      let rest = String.sub l (String.rindex l ')' + 2) (String.length l - String.rindex l ')' - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      (float_of_string f.(11) /. clk_tck, float_of_string f.(12) /. clk_tck)
  | [] -> failwith "empty /proc stat"

(* This process's peak resident set (VmHWM), MiB. *)
let peak_rss_mb () =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> acc)
    0. (read_lines "/proc/self/status")

let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* JSON output: a flat object of named numbers, strings and booleans. *)
type jv = F of float | I of int | S of string | B of bool | L of float list

let json_obj fields =
  let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null" in
  let item (k, v) =
    Printf.sprintf "%S: %s" k
      (match v with
      | F f -> num f
      | I i -> string_of_int i
      | S s -> Printf.sprintf "%S" s
      | B b -> string_of_bool b
      | L l -> "[" ^ String.concat ", " (List.map num l) ^ "]")
  in
  "{" ^ String.concat ", " (List.map item fields) ^ "}"

(* Spans recorded by the benchmark around its calls into a layer: name,
   parent, start and end (cycle ticks) and a count of the items the call
   covered. Kept in memory and summarised when a stage ends; a layer's
   self time is its span's duration minus that of its child spans. *)
module Span = struct
  let cap = 1 lsl 19
  let names : (string, int) Hashtbl.t = Hashtbl.create 64

  let id s =
    match Hashtbl.find_opt names s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.add names s i;
        i

  type t = {
    name : int array;
    parent : int array;
    t0 : int array;
    t1 : int array;
    arg : int array;
    mutable n : int;
    mutable dropped : int;
    mutable cur : int;
  }

  let create () =
    let a () = Array.make cap 0 in
    { name = a (); parent = a (); t0 = a (); t1 = a (); arg = a (); n = 0; dropped = 0; cur = -1 }

  let enter r name =
    if r.n >= cap then begin
      r.dropped <- r.dropped + 1;
      -1
    end
    else begin
      let i = r.n in
      r.n <- i + 1;
      r.name.(i) <- name;
      r.parent.(i) <- r.cur;
      r.cur <- i;
      r.t0.(i) <- Rp_trace.now_ticks ();
      i
    end

  (* Close span [i], naming it [name] (a call's outcome may decide it)
     and recording the [arg] items it covered. *)
  let leave r i name arg =
    if i >= 0 then begin
      r.t1.(i) <- Rp_trace.now_ticks ();
      r.name.(i) <- name;
      r.arg.(i) <- arg;
      r.cur <- r.parent.(i)
    end

  type agg = { count : int; dur : float; self : float; items : int }

  (* Per span name: count, total and self duration (ns), items covered. *)
  let summary r ~ticks_per_ns =
    let child = Array.make r.n 0 in
    for i = 0 to r.n - 1 do
      let p = r.parent.(i) in
      if p >= 0 then child.(p) <- child.(p) + (r.t1.(i) - r.t0.(i))
    done;
    let tbl = Hashtbl.create 16 in
    for i = 0 to r.n - 1 do
      let d = r.t1.(i) - r.t0.(i) in
      let a =
        Option.value (Hashtbl.find_opt tbl r.name.(i))
          ~default:{ count = 0; dur = 0.; self = 0.; items = 0 }
      in
      Hashtbl.replace tbl r.name.(i)
        {
          count = a.count + 1;
          dur = a.dur +. (float_of_int d /. ticks_per_ns);
          self = a.self +. (float_of_int (d - child.(i)) /. ticks_per_ns);
          items = a.items + r.arg.(i);
        }
    done;
    fun s -> Hashtbl.find_opt tbl (id s)

  let reset r =
    r.n <- 0;
    r.cur <- -1
end
