(* Instrument registry: names instruments and renders them.

   Three render targets from one registration:
   - memcached "stats" lines: [name value] pairs;
   - Prometheus text exposition (# HELP / # TYPE / samples);
   - a flat JSON object for benchmark/torture report files.

   [counter]/[histogram] are get-or-create so independent subsystems can
   share one instrument by agreeing on a name; registering a different
   instrument under an existing name replaces it in place. *)

type kind =
  | Counter of Counter.t
  | Fn_counter of (unit -> float)  (* monotonic source read on demand *)
  | Gauge of (unit -> float)
  | Histogram of Histogram.t
  | Multi of { label : string; sample : unit -> (string * float) list }
      (* one gauge family, one sample per label value (e.g. top-k keys) *)

type entry = { name : string; help : string; kind : kind }

type t = { mutex : Mutex.t; mutable entries : entry list (* reverse order *) }

let create () = { mutex = Mutex.create (); entries = [] }

let with_lock t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
      Mutex.unlock t.mutex;
      v
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

let valid_name name =
  name <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name
  && not (match name.[0] with '0' .. '9' -> true | _ -> false)

let register t ?(help = "") name kind =
  if not (valid_name name) then
    invalid_arg ("Rp_obs.Registry: invalid metric name " ^ name);
  with_lock t (fun () ->
      let entry = { name; help; kind } in
      if List.exists (fun e -> e.name = name) t.entries then
        t.entries <-
          List.map (fun e -> if e.name = name then entry else e) t.entries
      else t.entries <- entry :: t.entries)

let find t name =
  with_lock t (fun () -> List.find_opt (fun e -> e.name = name) t.entries)

let counter t ?help name =
  match find t name with
  | Some { kind = Counter c; _ } -> c
  | Some _ | None ->
      let c = Counter.create () in
      register t ?help name (Counter c);
      c

let histogram t ?help name =
  match find t name with
  | Some { kind = Histogram h; _ } -> h
  | Some _ | None ->
      let h = Histogram.create () in
      register t ?help name (Histogram h);
      h

let gauge t ?help name f = register t ?help name (Gauge f)

let multi_gauge t ?help name ~label sample =
  if not (valid_name label) then
    invalid_arg ("Rp_obs.Registry: invalid label name " ^ label);
  register t ?help name (Multi { label; sample })
let fn_counter t ?help name f = register t ?help name (Fn_counter f)
let register_counter t ?help name c = register t ?help name (Counter c)
let register_histogram t ?help name h = register t ?help name (Histogram h)

let names t =
  with_lock t (fun () -> List.rev_map (fun e -> e.name) t.entries)

let entries t = with_lock t (fun () -> List.rev t.entries)

let value t name =
  match find t name with
  | None -> None
  | Some e ->
      Some
        (match e.kind with
        | Counter c -> float_of_int (Counter.read c)
        | Fn_counter f | Gauge f -> f ()
        | Histogram h -> float_of_int (Histogram.snapshot h).Histogram.count
        | Multi m -> List.fold_left (fun acc (_, v) -> acc +. v) 0. (m.sample ()))

let reset_histograms t =
  List.iter
    (fun e -> match e.kind with Histogram h -> Histogram.reset h | _ -> ())
    (entries t)

(* --- rendering --- *)

let float_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

(* Histograms flatten into derived scalars for stats/JSON output. *)
let histogram_lines name (s : Histogram.snapshot) =
  [
    (name ^ "_count", string_of_int s.Histogram.count);
    (name ^ "_sum", string_of_int s.Histogram.sum);
    (name ^ "_max", string_of_int s.Histogram.max);
    (name ^ "_p50", string_of_int (Histogram.percentile s 0.5));
    (name ^ "_p99", string_of_int (Histogram.percentile s 0.99));
  ]

(* Prometheus label-value escaping (backslash, quote, newline). *)
let label_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let multi_lines name label samples =
  List.map
    (fun (k, v) ->
      (Printf.sprintf "%s{%s=\"%s\"}" name label (label_escape k),
       float_string v))
    samples

let to_stats ?(filter = fun _ -> true) t =
  List.concat_map
    (fun e ->
      if not (filter e.name) then []
      else
        match e.kind with
        | Counter c -> [ (e.name, string_of_int (Counter.read c)) ]
        | Fn_counter f | Gauge f -> [ (e.name, float_string (f ())) ]
        | Histogram h -> histogram_lines e.name (Histogram.snapshot h)
        | Multi m -> multi_lines e.name m.label (m.sample ()))
    (entries t)

let to_json ?filter t =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      (* every rendered value is numeric; emit it bare *)
      Buffer.add_string buf (Printf.sprintf "%S:%s" name v))
    (to_stats ?filter t);
  Buffer.add_char buf '}';
  Buffer.contents buf

let prometheus_header buf name help typ =
  if help <> "" then
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ)

let prometheus_histogram buf name help (s : Histogram.snapshot) =
  prometheus_header buf name help "histogram";
  (* Cumulative buckets up to the last occupied one, then +Inf. *)
  let last =
    let l = ref 0 in
    Array.iteri (fun i c -> if c > 0 then l := i) s.Histogram.counts;
    !l
  in
  let cum = ref 0 in
  for b = 0 to last do
    cum := !cum + s.Histogram.counts.(b);
    Buffer.add_string buf
      (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" name (Histogram.upper_bound b)
         !cum)
  done;
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name s.Histogram.count);
  Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" name s.Histogram.sum);
  Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name s.Histogram.count)

let to_prometheus ?(filter = fun _ -> true) t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      if filter e.name then
        match e.kind with
        | Counter c ->
            prometheus_header buf e.name e.help "counter";
            Buffer.add_string buf
              (Printf.sprintf "%s %d\n" e.name (Counter.read c))
        | Fn_counter f ->
            prometheus_header buf e.name e.help "counter";
            Buffer.add_string buf
              (Printf.sprintf "%s %s\n" e.name (float_string (f ())))
        | Gauge f ->
            prometheus_header buf e.name e.help "gauge";
            Buffer.add_string buf
              (Printf.sprintf "%s %s\n" e.name (float_string (f ())))
        | Histogram h ->
            prometheus_histogram buf e.name e.help (Histogram.snapshot h)
        | Multi m ->
            prometheus_header buf e.name e.help "gauge";
            List.iter
              (fun (k, v) ->
                Buffer.add_string buf
                  (Printf.sprintf "%s{%s=\"%s\"} %s\n" e.name m.label
                     (label_escape k) (float_string v)))
              (m.sample ()))
    (entries t);
  Buffer.contents buf
