(** Instrument registry: names instruments, renders expositions.

    One registration feeds three render targets: memcached ["stats"]
    key/value lines ({!to_stats}), the Prometheus text format
    ({!to_prometheus}), and a flat JSON object for benchmark and torture
    report files ({!to_json}).

    Metric names must match [[a-zA-Z_:][a-zA-Z0-9_:]*] (the Prometheus
    rule); anything else raises [Invalid_argument]. *)

type t

val create : unit -> t

(** {1 Registration} *)

val counter : t -> ?help:string -> string -> Counter.t
(** Get-or-create a striped counter under this name. Returns the existing
    counter when the name is already bound to one. *)

val histogram : t -> ?help:string -> string -> Histogram.t
(** Get-or-create a striped histogram under this name. *)

val gauge : t -> ?help:string -> string -> (unit -> float) -> unit
(** Register a gauge read on demand (current value semantics). Replaces
    any existing instrument of the same name. *)

val multi_gauge :
  t -> ?help:string -> string -> label:string -> (unit -> (string * float) list) -> unit
(** Register a labeled gauge family sampled on demand: one sample per
    [(label_value, value)] pair (e.g. a top-k sketch's keys). Renders in
    Prometheus as [name{label="value"} v] lines under one [# TYPE name
    gauge] header, and in stats/JSON with the label baked into the key.
    The label name must satisfy the metric-name rule. *)

val fn_counter : t -> ?help:string -> string -> (unit -> float) -> unit
(** Register a monotonic source read on demand — for existing subsystem
    counters (e.g. an [Atomic.t] already maintained elsewhere) that
    should render with counter semantics. *)

val register_counter : t -> ?help:string -> string -> Counter.t -> unit
(** Register an instrument a subsystem already owns (replacing any
    existing binding of the name). *)

val register_histogram : t -> ?help:string -> string -> Histogram.t -> unit

val reset_histograms : t -> unit
(** Zero every registered histogram (the resettable instruments), leaving
    counters, gauges and multi-gauges untouched — the [stats reset]
    surface. Racy against concurrent recording, like {!Histogram.reset}. *)

(** {1 Reading} *)

val names : t -> string list
(** Registered names in registration order. *)

val value : t -> string -> float option
(** Current value by name: counter sum, gauge/fn-counter reading, or a
    histogram's total count. [None] for unknown names. This is the single
    assertion surface the torture scenarios use. *)

(** {1 Rendering} *)

val to_stats : ?filter:(string -> bool) -> t -> (string * string) list
(** memcached ["stats"]-style lines. Histograms flatten into
    [name_count], [name_sum], [name_max], [name_p50], [name_p99]. *)

val to_prometheus : ?filter:(string -> bool) -> t -> string
(** Prometheus text exposition (0.0.4): [# HELP] / [# TYPE] headers and
    samples; histograms render cumulative [_bucket{le="..."}] series plus
    [_sum] and [_count]. *)

val to_json : ?filter:(string -> bool) -> t -> string
(** One flat JSON object; same keys as {!to_stats}, numeric values. *)
