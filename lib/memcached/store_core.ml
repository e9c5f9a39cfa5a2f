(* What the two {!Store} backends share — the slab accounting, the
   command counters, the heat plane, the cold-tier hooks — and the
   backend signature each of them fills in ({!Store_lock}, {!Store_rp}).
   Internal to the store family: everything else goes through {!Store},
   which writes each memcached command once over this signature. *)

type kind = Lock | Rp
type rcu_mode = Rcu.mode = Memb | Qsbr

(* Cold-tier hooks, installed by [Tier.attach] (documented in
   store.mli). The store never touches segment files itself; locations
   are bare ints (the frame a cold marker holds, [Item.location]) so the
   store family stays independent of the tier's own types. *)

type tier_read_error = Tier_gone | Tier_torn

type tier_hooks = {
  th_demote : string -> string -> (int * int * int) option;
  th_read : int * int * int -> (string * string, tier_read_error) result;
  th_mark_dead : int * int * int -> unit;
  th_admit : unit -> bool;
}

(* A batch's replies, filled by a backend's [get_keys] and read by
   whoever renders them: for key [j] of the batch, its flags, CAS and
   the offset and length of its value in [vbuf] ([vlen] -1: a miss).
   The values are copied out of their slab chunks inside the read
   section that found their items, so the staging stays readable after
   the section closes. Reused from batch to batch. *)
module Hits = struct
  type t = {
    mutable flags : int array;
    mutable cas : int array;
    mutable voff : int array;
    mutable vlen : int array;
    mutable vbuf : Bytes.t;
    mutable fill : int;  (* bytes of [vbuf] in use *)
  }

  let create () =
    { flags = [||]; cas = [||]; voff = [||]; vlen = [||]; vbuf = Bytes.empty; fill = 0 }

  (* Room for [n] keys, every one a miss, and an empty value area; a
     value area grown past [Protocol.Inbuf.retain_bytes] by the last
     batch is let go. *)
  let prepare h n =
    if Array.length h.vlen < n then begin
      let cap = max n 64 in
      h.flags <- Array.make cap 0;
      h.cas <- Array.make cap 0;
      h.voff <- Array.make cap 0;
      h.vlen <- Array.make cap (-1)
    end
    else Array.fill h.vlen 0 n (-1);
    if Bytes.length h.vbuf > Protocol.Inbuf.retain_bytes then h.vbuf <- Bytes.empty;
    h.fill <- 0

  (* Space for a [len]-byte value at [fill]. *)
  let reserve h len =
    let need = h.fill + len in
    if need > Bytes.length h.vbuf then begin
      let grown = Bytes.create (max need (max 4096 (2 * Bytes.length h.vbuf))) in
      Bytes.blit h.vbuf 0 grown 0 h.fill;
      h.vbuf <- grown
    end

  (* Key [j] hits with a [len]-byte value about to be copied to [fill];
     returns where. *)
  let claim h j ~flags ~cas len =
    reserve h len;
    let off = h.fill in
    Array.unsafe_set h.flags j flags;
    Array.unsafe_set h.cas j cas;
    Array.unsafe_set h.voff j off;
    Array.unsafe_set h.vlen j len;
    h.fill <- off + len;
    off

  let put_string h j ~flags ~cas data =
    let len = String.length data in
    let off = claim h j ~flags ~cas len in
    Bytes.blit_string data 0 h.vbuf off len

  (* Key [j]'s item served from its chunk by one {!Item.serve}: its
     value's length, or -2 (expired) or -3 (cold), left in [vlen]. A
     value too long for the area left is served again once the area has
     grown. *)
  let rec serve h slab j item ~now =
    let fill = h.fill in
    let r = Item.serve slab item ~now ~flags:h.flags ~cas:h.cas j h.vbuf fill in
    if r >= 0 then begin
      Array.unsafe_set h.voff j fill;
      Array.unsafe_set h.vlen j r;
      h.fill <- fill + r;
      r
    end
    else if r <= -4 then begin
      reserve h (-4 - r);
      serve h slab j item ~now
    end
    else begin
      Array.unsafe_set h.vlen j r;
      r
    end

  let hit h j = Array.unsafe_get h.vlen j >= 0
  let value h j = Bytes.sub_string h.vbuf h.voff.(j) h.vlen.(j)
end

type t = {
  max_bytes : int;
  slab : Slab.t;  (* the values' chunks, and the accounting eviction compares *)
  clock : unit -> float;
  (* Workload-insight plane (Some iff created with [heat_topk > 0]).
     Every hot-path emission sits behind one branch on this option, so
     an unconfigured plane costs nothing but that branch. *)
  heat : Rp_heat.t option;
  (* Cold-tier hooks, installed by [Tier.attach]. *)
  mutable tier : tier_hooks option;
  (* striped counters, registered in [registry] under their stats names.
     GET-path counters ride the wait-free lookup, so they must never be a
     shared atomic RMW. *)
  registry : Rp_obs.Registry.t;
  get_hits : Rp_obs.Counter.t;
  get_misses : Rp_obs.Counter.t;
  cmd_get : Rp_obs.Counter.t;
  cmd_set : Rp_obs.Counter.t;
  deletes : Rp_obs.Counter.t;
  evicted : Rp_obs.Counter.t;
  expired : Rp_obs.Counter.t;
  clock_chances : Rp_obs.Counter.t;
  evict_sweep_us : Rp_obs.Histogram.t;  (* CLOCK sweep wall time, us *)
  (* Tier traffic counters. [tier_demotions] is deliberately separate
     from [evicted]: operators must be able to tell "moved to disk" from
     "lost" — an eviction wave that demotes costs latency, one that
     drops costs data. *)
  tier_demotions : Rp_obs.Counter.t;
  tier_promotions : Rp_obs.Counter.t;
  tier_read_errors : Rp_obs.Counter.t;
  (* A CRC-valid frame holding the WRONG key is not media corruption —
     it means marker/segment bookkeeping is off. Counted apart from torn
     frames so a tier accounting bug is distinguishable in stats. *)
  tier_read_mismatches : Rp_obs.Counter.t;
  tier_read_us : Rp_obs.Histogram.t;  (* cold read wall time, us *)
  tier_demote_us : Rp_obs.Histogram.t;  (* demote append wall time, us *)
}

(* The backend signature: only what differs between the global-lock
   table and the RP table. Each command computes its key's [hash] once
   and passes it to every call below. Lock order, RP side: promote
   stripe > table stripe > [clock_mu]; never acquire upward. *)
type backend = {
  kind : kind;
  rcu_mode : rcu_mode;
  stripes : int;  (* writer serialization units (the global lock is one) *)
  hash : string -> int;  (* the key's stripe hash; the lock table needs none *)
  with_key : 'a. hash:int -> (unit -> 'a) -> 'a;
      (* Serialize a writer of the key: the RP table's stripe for it
         ([Rp_ht.enter_key]/[leave_key]), or the global lock. *)
  with_all : 'a. (unit -> 'a) -> 'a;  (* every writer stopped: flush_all *)
  live : hash:int -> now:Item.time -> string -> Item.t option;
      (* The unexpired item, under the key's lock (which keeps its chunk
         readable until the lock is released). *)
  store : hash:int -> string -> Item.t -> unit;
      (* Publish under the key's lock: slab charge, recency bookkeeping,
         the displaced item's chunk released and its cold frame marked
         dead. Never evicts. *)
  set :
    hash:int -> log:(Rp_persist.Record.t -> unit) option -> Bytes.t -> int -> int -> Item.t -> unit;
      (* A plain SET whose key is a slice of a buffer: [store], and the
         op-log record handed to [log] ({!log_set}), under the key's
         lock, which it takes and releases itself. The key string is
         made only for a new binding or a record. *)
  remove : hash:int -> string -> bool;  (* under the key's lock *)
  keys : unit -> string list;  (* under [with_all] *)
  budget : unit -> unit;
      (* The budget step once the key's lock is released: the CLOCK
         sweep, or exact-LRU eviction. *)
  evict_to_budget : unit -> unit;  (* like [budget], but waits it out *)
  get : now:Item.time -> string -> Protocol.value option;
      (* One key's live value, a fresh copy, counted and touched. *)
  get_keys : now:Item.time -> Protocol.Keys.t -> first:int -> n:int -> Hits.t -> unit;
      (* Each of keys [first, first + n)'s live value copied into the
         hits at [j = i - first], every outcome counted and every hit
         touched. *)
  prefetch : Protocol.Keys.t -> unit;
      (* Cache hints for the keys about to be served one by one. *)
  iter : (string -> flags:int -> exptime:Item.time -> cas:int -> string -> unit) -> int;
      (* Every live binding: its header's fields and a copy of its
         value. *)
  length : unit -> int;
  buckets : unit -> int;
  reader_offline : unit -> unit;
  observe : unit -> unit;  (* register the backend's own instruments *)
  stripe_heat : unit -> (int * int) array;
  validate : unit -> (unit, string) result;  (* the table's invariants *)
}

let hash_key = Rp_hashes.Hashfn.fnv1a_string

let create ~max_bytes ~clock ~heat_topk ~heat_sample =
  let registry = Rp_obs.Registry.create () in
  let counter name help = Rp_obs.Registry.counter registry ~help name in
  let histogram name help = Rp_obs.Registry.histogram registry ~help name in
  {
    max_bytes;
    slab = Slab.create ();
    clock;
    heat =
      (if heat_topk > 0 then
         Some (Rp_heat.create ~k:heat_topk ~sample_every:heat_sample ())
       else None);
    tier = None;
    registry;
    get_hits = counter "get_hits" "GETs that found a live item";
    get_misses = counter "get_misses" "GETs that missed or hit an expired item";
    cmd_get = counter "cmd_get" "GET commands (one per key)";
    cmd_set = counter "cmd_set" "storage commands";
    deletes = counter "deletes" "DELETE commands";
    evicted = counter "evictions" "items evicted to fit the byte budget";
    expired = counter "expired" "items dropped on expiry";
    clock_chances =
      counter "clock_second_chances"
        "CLOCK eviction second chances granted to recently-touched items";
    evict_sweep_us =
      histogram "eviction_sweep_us"
        "wall time of CLOCK eviction sweeps, microseconds (second chances \
         included)";
    tier_demotions =
      counter "tier_demotions_total"
        "evictions demoted to the cold tier instead of dropped";
    tier_promotions =
      counter "tier_promotions_total" "cold items promoted back to RAM on access";
    tier_read_errors =
      counter "tier_read_errors_total"
        "cold reads that failed for good (torn record or vanished segment)";
    tier_read_mismatches =
      counter "tier_read_mismatches_total"
        "cold reads that returned a CRC-valid frame for a different key (tier \
         location bookkeeping bug, not media corruption)";
    tier_read_us =
      histogram "tier_read_us" "cold-tier positioned read wall time, microseconds";
    tier_demote_us =
      histogram "tier_demote_us"
        "cold-tier demotion (segment append) wall time, microseconds";
  }

let now c = Item.time_of_float (c.clock ())

(* The op-log record of a SET-family command that left [key] bound to
   [item], handed to the persistence hook [log] (none: nothing to do).
   Callers run it under the key's lock, which is what keeps the log a
   faithful per-key history. State-based: the resulting item, not the
   command's arguments, so replay is idempotent and convergent (see
   [Rp_persist.Record]). *)
let log_set c log ~op key item =
  match log with
  | None -> ()
  | Some h ->
      let slab = c.slab in
      h
        (Rp_persist.Record.Set
           {
             op;
             key;
             flags = Item.flags slab item;
             exptime = Item.float_of_time (Item.exptime slab item);
             cas = Item.cas slab item;
             data = Item.value slab item;
           })

(* A hot item's reply under [key], its value a fresh copy: callers hold
   the key's lock or the read section that found the item. *)
let reply c ~with_cas key item : Protocol.value =
  let slab = c.slab in
  {
    vkey = key;
    vflags = Item.flags slab item;
    vdata = Item.value slab item;
    vcas = (if with_cas then Some (Item.cas slab item) else None);
  }

(* --- heat plane emission (each call is one branch when the plane is
   off; the plane itself is plain stripe-discipline stores) --- *)

(* A GET outcome: its striped counter, whose new per-stripe value also
   drives the heat plane's sampler. *)
let[@inline] count_hit c key vbytes =
  let n = Rp_obs.Counter.incr_get c.get_hits in
  match c.heat with
  | None -> ()
  | Some h -> Rp_heat.note_hit h ~n key ~vbytes

let[@inline] count_miss c key =
  let n = Rp_obs.Counter.incr_get c.get_misses in
  match c.heat with None -> () | Some h -> Rp_heat.note_miss h ~n key

(* A miss on key [i] of a batch: its key string is built only for the
   heat plane. *)
let count_miss_key c keys i =
  let n = Rp_obs.Counter.incr_get c.get_misses in
  match c.heat with None -> () | Some h -> Rp_heat.note_miss h ~n (Protocol.Keys.key keys i)

(* Exemplar stamp beside a [Histogram.observe] of the same value. *)
let[@inline] heat_slo c name value =
  match c.heat with None -> () | Some h -> Rp_heat.note_slo h name value

(* --- cold items --- *)

(* Whenever a cold marker leaves the table (delete, overwrite, promote,
   relocate, flush), its segment frame becomes garbage: tell the tier so
   per-segment live accounting — and through it, compaction — stays
   exact. *)
let tier_mark_dead c item =
  match c.tier with
  | Some h -> Option.iter h.th_mark_dead (Item.location c.slab item)
  | None -> ()

(* A frame read back for [key]: a CRC-valid frame for another key counts
   as a mismatch and reads as torn. Torn reads are counted as errors;
   [Tier_gone] is left to the caller, which may re-resolve and retry. *)
let check_frame c key = function
  | Ok (rkey, data) when String.equal rkey key -> Ok data
  | Ok _ ->
      Rp_obs.Counter.incr c.tier_read_mismatches;
      Rp_obs.Counter.incr c.tier_read_errors;
      Error Tier_torn
  | Error Tier_torn ->
      Rp_obs.Counter.incr c.tier_read_errors;
      Error Tier_torn
  | Error Tier_gone -> Error Tier_gone

(* One timed positioned read of a cold item's frame. *)
let read_cold c hooks key loc =
  let started = Rp_trace.now_ns () in
  let r = hooks.th_read loc in
  let us = (Rp_trace.now_ns () - started) / 1000 in
  Rp_obs.Histogram.observe c.tier_read_us us;
  heat_slo c "tier_read_us" us;
  check_frame c key r

(* Resolve the live value of [item] while HOLDING the key's lock: the
   read-modify-write commands — append/prepend, incr/decr, touch — need a
   demoted key's real value, not the marker's "". Reading under the
   stripe is safe: the tier's own mutex is a leaf below every store lock
   (demotion already appends under this very stripe), and the frame
   cannot move mid-read because compaction's relocate step needs this
   same stripe — which also makes [Tier_gone] unreachable here, so any
   failure is final: the value is gone, and the caller drops the marker
   rather than operate on "". Hot items return a copy of their value. *)
let resolve_cold_locked c key item =
  match (Item.location c.slab item, c.tier) with
  | None, _ -> Some (Item.value c.slab item)
  | Some _, None -> None (* marker with no tier attached (shutdown window) *)
  | Some loc, Some hooks -> (
      match read_cold c hooks key loc with
      | Ok data -> Some data
      | Error Tier_torn -> None
      | Error Tier_gone ->
          Rp_obs.Counter.incr c.tier_read_errors;
          None)
