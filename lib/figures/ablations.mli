(** Ablation benchmarks for the design choices DESIGN.md calls out.

    Not figures from the paper — these quantify the mechanisms {e behind}
    the figures: where DDDS's resize pain comes from (latency tails), what
    RP costs when writes appear, what a grace period costs as readers are
    added, how much unzip work an expansion performs, and what Xu's
    two-pointer scheme pays in memory. *)

val run_all : unit -> unit
(** Print every ablation, each at its default size:
    - lookup latency under resize: one reader samples per-lookup latency
      while a resizer flips the table size; p50 / p99 / p99.9 / mean for
      rp-qsbr, rp-memb and ddds (DDDS's resize pain is a fat tail);
    - update-ratio sweep: single-worker throughput as the update fraction
      grows (RP's read-side advantage must not collapse with writes);
    - grace-period latency: one memb [synchronize] against n idle and n
      churning readers;
    - unzip work: passes, splices and time for one doubling as the load
      factor grows (passes track the longest interleaved run);
    - memory overhead: per-node and per-table words, the unzip
      algorithm's 1-pointer nodes against Xu's 2-pointer nodes. *)
