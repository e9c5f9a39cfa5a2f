(** rp_heat: the workload-insight plane.

    Streaming answers to "which keys are hot, which stripes contend,
    which values cost the most to keep hot": per-domain Space-Saving
    top-k sketches over hits/misses/mutations ({!Sketch}), log2 key- and
    value-size distributions per command class, tier churn attribution
    by value-size class, a per-stripe contention heatmap (fed by
    [Rp_ht.stripe_heat] through {!register}), and trace exemplars — the
    last sampled [Rp_trace] id — on top-k entries and over-SLO latency
    buckets.

    Recording is plain stores under the {!Rp_obs.Stripe} discipline and
    obeys the same global kill switch; a store created with
    [--heat-topk 0] has no [t] at all, so the hot-path cost of an
    unconfigured plane is a single branch. An enabled plane head-samples
    the note path (one operation in [sample_every] per stripe pays for
    sketch + histogram work, the rest bump one counter and test it), which
    is what keeps a GET with the plane on inside the 1.15x overhead
    budget. All exposed counts are scaled back to stream units. *)

module Sketch = Sketch

type t

val create : k:int -> ?sample_every:int -> unit -> t
(** [create ~k ()] builds a plane tracking [k] heavy hitters per sketch
    per domain, head-sampling one note in [sample_every] (default 16;
    pass 1 to record every operation, e.g. in tests wanting exact
    counts). Raises [Invalid_argument] when [k <= 0] or [sample_every]
    is not a power of two. *)

val sample_every : t -> int

val hits : t -> Sketch.t
val misses : t -> Sketch.t
val mutations : t -> Sketch.t

(** {1 Recording} (hot paths; plain stores only) *)

val note_hit : t -> n:int -> string -> vbytes:int -> unit
(** A GET hit on [key] returning a [vbytes]-byte payload. [n] is the
    caller's per-stripe count of GET hits including this one
    ({!Rp_obs.Counter.incr_get}); the note is sampled on it, one in
    [sample_every] ([n < 0]: instruments off, nothing recorded). *)

val note_miss : t -> n:int -> string -> unit
(** A GET miss; [n] as for {!note_hit}, counting misses. *)

val note_set : t -> ?vbytes:int -> string -> unit
(** A storage-class mutation (set/add/replace/cas/append/prepend/incr/
    decr/touch). [vbytes] is the stored payload size when the command
    carries one. *)

val note_delete : t -> string -> unit

val note_tier_demote : t -> vbytes:int -> unit
(** A value of [vbytes] bytes demoted to the cold tier. *)

val note_tier_promote : t -> vbytes:int -> unit

val note_slo : t -> string -> int -> unit
(** [note_slo t hist_name value] stamps the exemplar cell of [value]'s
    log2 bucket in the named watched histogram ([eviction_sweep_us],
    [tier_read_us], [tier_demote_us]) with the current sampled trace id,
    if any. Call it beside the [Rp_obs.Histogram.observe] of the same
    value. *)

val reset : t -> unit
(** Clear the sketches and exemplar cells (the [stats reset] surface).
    The size histograms are registry-owned and reset via
    {!Rp_obs.Registry.reset_histograms}. *)

(** {1 Exposition} *)

val register : t -> Rp_obs.Registry.t -> stripe_heat:(unit -> (int * int) array) -> unit
(** Register the [heat_*] instrument families: top-k labeled gauges
    ([heat_topk_hits{key="..."}] etc.), tracked-total counters, the size
    histograms, and the per-stripe acquisition/contended heatmap gauges
    sampled from [stripe_heat]. *)

val stats_kv : t -> (string * string) list
(** [stats heat] detail lines: per-sketch top entries as
    [heat_top_<sketch>_<rank>_{key,count,err,exemplar}] (bounded ranks;
    the full top-k lives in the labeled gauges and {!to_json}). *)

val to_json : ?n:int -> t -> string
(** The [/heat] document: sketches (top [n], default [k]), stripe
    heatmap, size histograms, and over-SLO bucket exemplars. *)
