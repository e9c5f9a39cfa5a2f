(** rp_obs: the observability plane.

    Low-overhead instrumentation for the relativistic stack, built so
    that measuring the read path cannot invalidate what it measures:

    - {!Counter}: striped monotonic counters — one unsynchronized store
      per increment on a cache-line-padded per-domain cell;
    - {!Histogram}: 64-bucket power-of-two latency/size histograms with
      striped recording and merged snapshots;
    - {!Registry}: names instruments and renders memcached [stats]
      lines, Prometheus text exposition, and JSON snapshots;
    - {!Stripe}: the shared per-domain slot registry underneath, plus
      the global {!set_enabled} kill switch. *)

module Stripe = Stripe
module Counter = Counter
module Histogram = Histogram
module Registry = Registry

let set_enabled = Stripe.set_enabled
let is_enabled = Stripe.is_enabled
