(* rp_heat: the workload-insight plane.

   The relativistic stack makes reads nearly free, so the *workload* —
   not the lookup — decides where the system hurts. This plane answers
   the operator questions the other planes can't: which keys are hot
   (per-domain Space-Saving sketches over hits, misses and mutations),
   which writer stripes contend (per-stripe heatmap cells fed by
   [Rp_ht]), what sizes each command class moves (log2 key/value-size
   histograms), and what tier churn costs (promote/demote traffic
   bucketed by value-size class). Top-k entries and latency buckets
   carry trace exemplars — the last sampled [Rp_trace] id that touched
   them — so a hot key links straight to a Perfetto span.

   Recording follows the [Rp_obs] stripe discipline throughout: plain
   stores into domain-private cells, merged at read time, gated by the
   same global kill switch. The store compiles the whole plane down to
   one branch ([match t.heat with None -> ()]) when --heat-topk is 0. *)

module Sketch = Sketch

type t = {
  k : int;
  (* Head sampling: only every [sample_every]-th note on a stripe does
     sketch + histogram work; the off-sample cost is one private counter
     bump. Exposition multiplies counts back up, so reported magnitudes
     stay stream-calibrated and ratios (key shares, distribution shapes)
     are unbiased. This is what holds the note path inside the 1.15x
     GET budget — the full record costs ~5x the whole allowance. *)
  sample_every : int;
  samplers : int array;  (* stripe-strided tick counters, pad 8 *)
  hits : Sketch.t;
  misses : Sketch.t;
  mutations : Sketch.t;
  (* log2 size distributions per command class *)
  get_key_bytes : Rp_obs.Histogram.t;
  get_value_bytes : Rp_obs.Histogram.t;  (* hit payloads *)
  set_key_bytes : Rp_obs.Histogram.t;
  set_value_bytes : Rp_obs.Histogram.t;
  delete_key_bytes : Rp_obs.Histogram.t;
  (* tier churn attribution: bucket counts = events per log2 value-size
     class, _sum = total bytes moved *)
  tier_demote_value_bytes : Rp_obs.Histogram.t;
  tier_promote_value_bytes : Rp_obs.Histogram.t;
  (* per-bucket trace exemplars for watched latency histograms: the
     last sampled trace id to land in each log2 bucket, so an over-SLO
     bucket links to a span. Keyed by the histogram's registry name. *)
  slo_exemplars : (string * int array) list;
  mutable stripe_heat : unit -> (int * int) array;
}

(* The latency histograms whose buckets carry exemplars. These are
   store-owned instruments (microsecond-valued); rp_heat only keeps the
   exemplar cells beside them. *)
let watched_histograms = [ "eviction_sweep_us"; "tier_read_us"; "tier_demote_us" ]

let create ~k ?(sample_every = 16) () =
  if k <= 0 then invalid_arg "Rp_heat.create: k <= 0";
  if sample_every <= 0 || sample_every land (sample_every - 1) <> 0 then
    invalid_arg "Rp_heat.create: sample_every not a power of two";
  let hist () = Rp_obs.Histogram.create () in
  {
    k;
    sample_every;
    samplers = Array.make (Rp_obs.Stripe.capacity * 8) 0;
    hits = Sketch.create ~k;
    misses = Sketch.create ~k;
    mutations = Sketch.create ~k;
    get_key_bytes = hist ();
    get_value_bytes = hist ();
    set_key_bytes = hist ();
    set_value_bytes = hist ();
    delete_key_bytes = hist ();
    tier_demote_value_bytes = hist ();
    tier_promote_value_bytes = hist ();
    slo_exemplars =
      List.map
        (fun name -> (name, Array.make Rp_obs.Histogram.buckets 0))
        watched_histograms;
    stripe_heat = (fun () -> [||]);
  }

let sample_every t = t.sample_every
let hits t = t.hits
let misses t = t.misses
let mutations t = t.mutations

(* The note-path gate: this stripe's sampler, then the kill switch.
   True with probability 1/sample_every — the only case that pays for
   sketch and histogram work. The sampler is a per-stripe LCG rather
   than a stride counter: a stride phase-locks with periodic key replays
   (cycling an array whose length shares a factor with the period
   samples the same positions every lap, uniformizing the sketch), while
   LCG high bits are unbiased against any replay pattern. The kill
   switch is read only for a sampled note: the off-sample path (every
   GET but one in [sample_every]) stays one call into [Rp_obs]. *)
let[@inline] tick t =
  let i = Rp_obs.Stripe.index () * 8 in
  let st =
    (Array.unsafe_get t.samplers i * 2685821657736338717) + 1442695040888963407
  in
  Array.unsafe_set t.samplers i st;
  (st lsr 33) land (t.sample_every - 1) = 0 && Rp_obs.Stripe.is_enabled ()

(* The exemplar riding this record: the in-flight request's trace id,
   but only when that request is head-sampled — an unsampled id points
   at a span whose detail the recorder dropped. *)
let[@inline] exemplar_now () =
  if Rp_trace.sampling_now () then Rp_trace.current_trace_id () else 0

(* GET outcomes, the hottest notes, sample on the caller's own count of
   them ([n], from [Rp_obs.Counter.incr_get] on the store's hit or miss
   counter, per stripe) instead of ticking the LCG: the store has just
   looked up its stripe for that counter, and a second lookup here cost
   about as much as the rest of the off-sample path. The count is mixed
   by the same multiplier the LCG uses and its high bits tested, so the
   sampled positions drift across laps of a periodic key replay rather
   than locking to them. [n < 0] means instruments are off. *)
let[@inline] sampled_count t n =
  n >= 0 && ((n * 2685821657736338717) lsr 33) land (t.sample_every - 1) = 0

let note_hit t ~n key ~vbytes =
  if sampled_count t n then begin
    Sketch.record t.hits ~exemplar:(exemplar_now ()) key;
    Rp_obs.Histogram.observe t.get_key_bytes (String.length key);
    Rp_obs.Histogram.observe t.get_value_bytes vbytes
  end

let note_miss t ~n key =
  if sampled_count t n then begin
    Sketch.record t.misses ~exemplar:(exemplar_now ()) key;
    Rp_obs.Histogram.observe t.get_key_bytes (String.length key)
  end

let note_set t ?vbytes key =
  if tick t then begin
    Sketch.record t.mutations ~exemplar:(exemplar_now ()) key;
    Rp_obs.Histogram.observe t.set_key_bytes (String.length key);
    match vbytes with
    | Some v -> Rp_obs.Histogram.observe t.set_value_bytes v
    | None -> ()
  end

let note_delete t key =
  if tick t then begin
    Sketch.record t.mutations ~exemplar:(exemplar_now ()) key;
    Rp_obs.Histogram.observe t.delete_key_bytes (String.length key)
  end

let note_tier_demote t ~vbytes =
  Rp_obs.Histogram.observe t.tier_demote_value_bytes vbytes

let note_tier_promote t ~vbytes =
  Rp_obs.Histogram.observe t.tier_promote_value_bytes vbytes

(* Stamp the exemplar cell of [value]'s bucket in [name]'s exemplar
   table. Called right after the store observes the same value into the
   histogram itself; a plain store (last sampled writer wins). *)
let note_slo t name value =
  if Rp_obs.Stripe.is_enabled () then
    match List.assoc_opt name t.slo_exemplars with
    | None -> ()
    | Some cells ->
        let ex = exemplar_now () in
        if ex <> 0 then cells.(Rp_obs.Histogram.bucket_of_value value) <- ex

let reset t =
  Array.fill t.samplers 0 (Array.length t.samplers) 0;
  Sketch.reset t.hits;
  Sketch.reset t.misses;
  Sketch.reset t.mutations;
  List.iter (fun (_, cells) -> Array.fill cells 0 (Array.length cells) 0)
    t.slo_exemplars

(* --- exposition --- *)

let sketches t =
  [ ("hits", t.hits); ("misses", t.misses); ("mutations", t.mutations) ]

let size_histograms t =
  [
    ("get_key_bytes", t.get_key_bytes);
    ("get_value_bytes", t.get_value_bytes);
    ("set_key_bytes", t.set_key_bytes);
    ("set_value_bytes", t.set_value_bytes);
    ("delete_key_bytes", t.delete_key_bytes);
    ("tier_demote_value_bytes", t.tier_demote_value_bytes);
    ("tier_promote_value_bytes", t.tier_promote_value_bytes);
  ]

let register t reg ~stripe_heat =
  t.stripe_heat <- stripe_heat;
  Rp_obs.Registry.gauge reg ~help:"Space-Saving top-k capacity per domain"
    "heat_topk" (fun () -> float_of_int t.k);
  Rp_obs.Registry.gauge reg
    ~help:"head-sampling period of the heat note path (counts are scaled back)"
    "heat_sample_every"
    (fun () -> float_of_int t.sample_every);
  (* Sampled magnitudes are scaled back to stream units everywhere they
     leave the plane, so operators compare them to cmd_* counters
     directly. *)
  let scale = t.sample_every in
  List.iter
    (fun (name, sk) ->
      Rp_obs.Registry.fn_counter reg
        ~help:("operations absorbed by the " ^ name ^ " sketch (scaled)")
        ("heat_" ^ name ^ "_tracked_total")
        (fun () -> float_of_int (Sketch.total sk * scale));
      Rp_obs.Registry.multi_gauge reg
        ~help:("merged Space-Saving top-k of " ^ name ^ " by key")
        ("heat_topk_" ^ name) ~label:"key"
        (fun () ->
          List.map
            (fun (e : Sketch.entry) -> (e.key, float_of_int (e.count * scale)))
            (Sketch.top ~n:t.k sk)))
    (sketches t);
  List.iter
    (fun (name, h) ->
      Rp_obs.Registry.register_histogram reg
        ~help:("log2 " ^ name ^ " distribution")
        ("heat_" ^ name) h)
    (size_histograms t);
  Rp_obs.Registry.multi_gauge reg
    ~help:"writer stripe lock acquisitions by stripe" "heat_stripe_acquisitions"
    ~label:"stripe"
    (fun () ->
      Array.to_list
        (Array.mapi
           (fun i (acq, _) -> (string_of_int i, float_of_int acq))
           (t.stripe_heat ())));
  Rp_obs.Registry.multi_gauge reg
    ~help:"contended writer stripe acquisitions by stripe"
    "heat_stripe_contended" ~label:"stripe"
    (fun () ->
      Array.to_list
        (Array.mapi
           (fun i (_, cont) -> (string_of_int i, float_of_int cont))
           (t.stripe_heat ())))

(* [stats heat] detail lines: top entries per sketch, one space-free
   value per line (err and exemplar have no labeled-gauge rendering).
   Bounded to 8 ranks per sketch — the full top-k is in the labeled
   gauges and [heat dump]. *)
let stats_detail_ranks = 8

let stats_kv t =
  let lines = ref [] in
  let add k v = lines := (k, v) :: !lines in
  let scale = t.sample_every in
  List.iter
    (fun (name, sk) ->
      List.iteri
        (fun rank (e : Sketch.entry) ->
          let p = Printf.sprintf "heat_top_%s_%d" name rank in
          add (p ^ "_key") e.key;
          add (p ^ "_count") (string_of_int (e.count * scale));
          add (p ^ "_err") (string_of_int (e.err * scale));
          add (p ^ "_exemplar") (Printf.sprintf "0x%x" e.exemplar))
        (Sketch.top ~n:stats_detail_ranks sk))
    (sketches t);
  List.rev !lines

(* --- /heat JSON --- *)

let json_escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let json_sketch buf name sk ~n ~scale =
  Buffer.add_string buf (Printf.sprintf "%S:{\"tracked\":%d,\"top\":[" name
       (Sketch.total sk * scale));
  List.iteri
    (fun rank (e : Sketch.entry) ->
      if rank > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "{\"rank\":%d,\"key\":\"" rank);
      json_escape buf e.key;
      Buffer.add_string buf
        (Printf.sprintf "\",\"count\":%d,\"err\":%d,\"exemplar\":\"0x%x\"}"
           (e.count * scale) (e.err * scale) e.exemplar))
    (Sketch.top ~n sk);
  Buffer.add_string buf "]}"

let json_histogram buf name h =
  let s = Rp_obs.Histogram.snapshot h in
  Buffer.add_string buf
    (Printf.sprintf
       "%S:{\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%d,\"p99\":%d}" name
       s.Rp_obs.Histogram.count s.Rp_obs.Histogram.sum s.Rp_obs.Histogram.max
       (Rp_obs.Histogram.percentile s 0.5)
       (Rp_obs.Histogram.percentile s 0.99))

let to_json ?n t =
  let n = match n with Some n -> min n t.k | None -> t.k in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "{\"heat_enabled\":true,\"heat_topk\":%d,\"sample_every\":%d"
       t.k t.sample_every);
  List.iter
    (fun (name, sk) ->
      Buffer.add_char buf ',';
      json_sketch buf name sk ~n ~scale:t.sample_every)
    (sketches t);
  Buffer.add_string buf ",\"stripes\":[";
  Array.iteri
    (fun i (acq, cont) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"stripe\":%d,\"acquisitions\":%d,\"contended\":%d}"
           i acq cont))
    (t.stripe_heat ());
  Buffer.add_string buf "],\"sizes\":{";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char buf ',';
      json_histogram buf name h)
    (size_histograms t);
  (* Over-SLO buckets of the watched latency histograms, linked to the
     last sampled span that landed there. The SLO is the tracer's slow
     budget (microsecond-valued histograms, budget in ms). *)
  let slo_us =
    int_of_float (Rp_trace.slow_budget_ms () *. 1000.)
  in
  Buffer.add_string buf
    (Printf.sprintf "},\"slo_us\":%d,\"slo_exemplars\":{" slo_us);
  List.iteri
    (fun i (name, cells) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%S:[" name);
      let first = ref true in
      Array.iteri
        (fun b ex ->
          if ex <> 0 && Rp_obs.Histogram.upper_bound b >= slo_us then begin
            if not !first then Buffer.add_char buf ',';
            first := false;
            Buffer.add_string buf
              (Printf.sprintf "{\"le\":%d,\"exemplar\":\"0x%x\"}"
                 (Rp_obs.Histogram.upper_bound b) ex)
          end)
        cells;
      Buffer.add_char buf ']')
    t.slo_exemplars;
  Buffer.add_string buf "}}";
  Buffer.contents buf
