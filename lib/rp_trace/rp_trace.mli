(** rp_trace: always-on sampling flight recorder.

    Causal span tracing across the serving, RCU, and persistence planes.
    Every domain records spans into a preallocated per-domain ring with
    plain unsynchronized stores (the {!Rp_obs.Stripe} discipline — a live
    domain owns its stripe slot exclusively) and CLOCK_MONOTONIC
    nanosecond timestamps from a noalloc C stub.

    Three emission tiers:
    - {e request tier} ({!request_begin}/{!request_end}): one B/E pair
      per protocol request, always recorded — the substrate the tail
      trigger retains when a request exceeds its latency budget;
    - {e detail tier} ({!span_begin_sampled} …): per-operation spans
      recorded only inside a head-sampled request. While no sampled
      request is in flight anywhere, the guard is one atomic load;
    - {e control tier} ({!span_begin} …): rare always-recorded spans
      (grace periods, resize passes, snapshots, CLOCK sweeps).

    Span names are interned once ({!intern}) so the emit path never
    touches a string. Exports render Chrome trace-event / Perfetto
    JSON. *)

(** {1 Configuration} *)

val set_enabled : bool -> unit
(** Master switch (on by default). Off, every entry point is an atomic
    load and a branch. *)

val is_enabled : unit -> bool

val configure : ?sample:int -> ?slow_ms:float -> ?buffer:int -> unit -> unit
(** [sample]: head-sample 1 request in N (default 1024; 1 = every
    request). [slow_ms]: tail-trigger latency budget (default 100 ms).
    [buffer]: records per domain ring (default 1024, sized to keep the
    ring L2-resident) — changing it swaps and clears every allocated
    ring. *)

val sample_every : unit -> int
val slow_budget_ms : unit -> float
val buffer_size : unit -> int

val now_ns : unit -> int
(** CLOCK_MONOTONIC, nanoseconds. *)

val now_ticks : unit -> int
(** The raw cycle counter records are stamped with (TSC / CNTVCT); a
    few ns per read. Convert via the calibrated decode path
    ({!snapshot}), not by hand. *)

(** {1 Span names} *)

val intern : string -> int
(** Intern a span name to the id the emit path takes. Call once at
    module init, not per span. *)

(** {1 Request context (per-connection trace context)} *)

val request_begin : ?arg:int -> ?trace:int -> int -> unit
(** Open the calling domain's request context: decides head sampling,
    assigns a trace id, emits the request-tier B record, and makes the
    request span the parent of every span emitted on this domain until
    {!request_end}. [arg] conventionally carries the connection id.
    [trace] (nonzero) adopts a trace id propagated from another process
    — e.g. the replication stream carrying a leader request's id to the
    follower apply — instead of minting a fresh one, so one Perfetto
    view groups both halves of the mutation. *)

val request_end : unit -> unit
(** Emit the request-tier E record, close the context, and — when total
    latency exceeded the budget — retain the request's span window in
    the slow-request log. *)

val current_trace_id : unit -> int
(** Trace id of the request in flight on the calling domain (0 when
    none) — capture it where a mutation crosses a process boundary so
    the far side can {!request_begin} with the same id. *)

val sampling_now : unit -> bool
(** The calling domain is inside a head-sampled request (detail spans
    will record). *)

(** {1 Spans}

    [begin] functions return a span id (or [-1] when not recording);
    pass it to the matching [end]. Begin/end must stay on the domain
    that opened the span. *)

val span_begin : ?arg:int -> int -> int
(** Control tier: recorded whenever tracing is enabled. *)

val span_end : ?arg:int -> int -> int -> unit

val instant : ?arg:int -> int -> unit

val with_span : ?arg:int -> int -> (unit -> 'a) -> 'a
(** Control-tier span around [f], closed on exception. *)

val span_begin_sampled : ?arg:int -> int -> int
(** Detail tier: recorded only inside a head-sampled request. Detail
    spans write a single complete (X) record at span end rather than a
    B/E pair — half the ring traffic on the hottest path. *)

val span_end_sampled : ?arg:int -> int -> int -> unit
val instant_sampled : ?arg:int -> int -> unit

val stamp_sampled : unit -> int
(** Detail tier, for operations too short to time: one cycle-counter
    read when the calling domain is inside a head-sampled request, else
    [-1]. Take it {e before} the operation issues its loads — a counter
    read waits for loads in flight, so a read after a short operation
    serializes it with the next. *)

val instant_at_sampled : ?arg:int -> int -> int -> unit
(** [instant_at_sampled kind stamp] records a detail-tier instant at
    [stamp] (from {!stamp_sampled}; nothing when it is negative), so the
    event can carry the operation's outcome in [arg]. *)

(** {1 Export} *)

type event = {
  name : string;
  phase : int; (* 0 = B, 1 = E, 2 = instant, 3 = X (complete span) *)
  ts_ns : int;
  dur_ns : int; (* complete-span duration; 0 unless phase 3 *)
  trace : int;
  span : int;
  parent : int;
  arg : int;
  domain : int;
  seq : int;
}

val snapshot : ?max_events:int -> unit -> event list * int
(** Decode the rings: events sorted by timestamp (stable within a domain
    by ring order), plus the count of records skipped because a
    concurrent writer overwrote them mid-read. With [max_events], the
    newest events win. *)

val export_json : ?max_events:int -> unit -> string
(** Chrome trace-event / Perfetto JSON ([ts] in microseconds since
    process start). *)

type slow_entry = {
  slow_trace : int;
  slow_dur_ns : int;
  slow_arg : int;
  slow_domain : int;
  slow_events : event list;
  slow_dropped : int;
}

val slow_snapshot : unit -> slow_entry list
(** Retained slow requests, newest first. *)

(** {1 Introspection} *)

val stats_kv : unit -> (string * string) list
(** The [stats trace] section. *)

val register_instruments : Rp_obs.Registry.t -> unit
(** Register [trace_*] fn-counters (spans, drops, sampled requests,
    slow retentions) for Prometheus/JSON exposition. *)

(** {1 Tests} *)

val reset_sampler : ?seed:int -> unit -> unit
(** Restart every domain's head-sample counter at [seed] so the sampled
    pattern is deterministic. *)

val reset : unit -> unit
(** Drop all recorded spans, slow entries, and counters (tests only;
    racy against concurrent emitters). *)
