(* Glue between Rp_tier.Cold_store and the store's tier hooks: demote /
   read / mark-dead plumbing, the background copying compactor, the
   guard's cold-tier pressure source, and the tier_* instruments. *)

let k_compact = Rp_trace.intern "tier.compact"

type t = {
  store : Store.t;
  cold : Rp_tier.Cold_store.t;
  max_bytes : int;
  min_dead_ratio : float;
  interval : float;
  paused : bool Atomic.t;
  compacting : bool Atomic.t;  (* single-flights compact_once *)
  stop_flag : bool Atomic.t;
  compactions : int Atomic.t;
  compact_copied : int Atomic.t;
  demote_failures : Rp_obs.Counter.t;
  mutable recovery_dropped : int;
  mutable domain : unit Domain.t option;
}

let compactions t = Atomic.get t.compactions
let paused t = Atomic.get t.paused

(* Copy one segment's still-live records to the head. Each record is
   re-checked against the table (tier_location) before the copy and
   re-verified under the key's stripe inside tier_relocate — a record
   promoted or deleted mid-pass is simply skipped. The store retires the
   old frame through [th_mark_dead]; a fully-dead sealed segment
   auto-drops there. A copy that fails (budget full, injected fault)
   leaves the record where it is; the segment then stays until a later
   pass. *)
let compact_segment t gen =
  let copied = ref 0 in
  List.iter
    (fun (loc, key, data) ->
      let from_ = (loc.Rp_tier.segment, loc.Rp_tier.offset, loc.Rp_tier.len) in
      if Store.tier_location t.store key = Some from_ then begin
        let relocate () =
          match Rp_tier.Cold_store.append t.cold ~key ~data with
          | Ok l -> Some (l.Rp_tier.segment, l.Rp_tier.offset, l.Rp_tier.len)
          | Error _ -> None
        in
        if Store.tier_relocate t.store ~key ~from_ ~relocate then incr copied
      end)
    (Rp_tier.Cold_store.segment_entries t.cold gen);
  !copied

let compact_once t =
  if Atomic.get t.paused then false
  else if not (Atomic.compare_and_set t.compacting false true) then false
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set t.compacting false)
      (fun () ->
        match
          Rp_tier.Cold_store.compact_candidate t.cold
            ~min_dead_ratio:t.min_dead_ratio
        with
        | None -> false
        | Some gen ->
            Rp_trace.with_span ~arg:gen k_compact (fun () ->
                let copied = compact_segment t gen in
                Atomic.incr t.compactions;
                ignore (Atomic.fetch_and_add t.compact_copied copied);
                true))

let compactor_loop t =
  (* Idle backoff: every pass that found no candidate doubles the doze,
     capped at max(interval, 1s), so an idle tier doesn't wake the domain
     every interval forever; any pass that compacted resets it. The first
     pass, too, waits one interval: run as [attach] returns, it would race
     the caller's own first moves on the tier. *)
  let idle = ref 0 in
  while not (Atomic.get t.stop_flag) do
    (* Sleep in slices so [stop] never waits out a long interval. The
       deadline is pure wall-clock sleep bookkeeping, not cache time, so
       it stays on the real clock rather than the store's injected one. *)
    let pause =
      Float.min
        (t.interval *. float_of_int (1 lsl !idle))
        (Float.max t.interval 1.0)
    in
    let deadline = Unix.gettimeofday () +. pause in
    let rec doze () =
      if not (Atomic.get t.stop_flag) then begin
        let left = deadline -. Unix.gettimeofday () in
        if left > 0. then begin
          Unix.sleepf (Float.min left 0.05);
          doze ()
        end
      end
    in
    doze ();
    if not (Atomic.get t.stop_flag) then begin
      let worked = try compact_once t with _ -> false in
      if worked then idle := 0 else if !idle < 5 then incr idle;
      (* QSBR discipline: this domain reads the table in compact_segment;
         go offline before blocking so grace periods don't wait on us. *)
      Store.reader_offline t.store
    end
  done

(* The [stats tier] section: the live view (mode, dir), then every
   tier_* instrument (demote/promote counters, read/demote latency
   histograms, the byte gauges registered below). *)
let stats_kv t () =
  [
    ("tier_mode", "demote");
    ("tier_dir", Rp_tier.Cold_store.dir t.cold);
    ("tier_max_bytes", string_of_int t.max_bytes);
    ("tier_recovery_dropped_segments", string_of_int t.recovery_dropped);
  ]
  @ Rp_obs.Registry.to_stats ~filter:(String.starts_with ~prefix:"tier_")
      (Store.registry t.store)

let register_instruments t reg =
  let g name help f = Rp_obs.Registry.gauge reg ~help name f in
  g "tier_bytes" "cold-tier bytes on disk (live + dead)" (fun () ->
      float_of_int (Rp_tier.Cold_store.total_bytes t.cold));
  g "tier_live_bytes" "cold-tier bytes still referenced by a marker"
    (fun () -> float_of_int (Rp_tier.Cold_store.live_bytes t.cold));
  g "tier_segments" "cold-tier segment files" (fun () ->
      float_of_int (Rp_tier.Cold_store.segment_count t.cold));
  g "tier_paused" "1 while Emergency has compaction/demotion paused"
    (fun () -> if Atomic.get t.paused then 1. else 0.);
  Rp_obs.Registry.fn_counter reg
    ~help:"copying-compaction passes completed" "tier_compactions_total"
    (fun () -> float_of_int (Atomic.get t.compactions));
  Rp_obs.Registry.fn_counter reg
    ~help:"records copied to the head segment by compaction"
    "tier_compact_copied_total" (fun () ->
      float_of_int (Atomic.get t.compact_copied))

let attach ?(min_dead_ratio = 0.5) ?(compact_interval = 0.05) ?segment_bytes
    ~dir ~max_mb store =
  let max_bytes = max_mb * 1024 * 1024 in
  (* Only the RP backend's CLOCK sweep demotes; a tier under the lock
     backend would never receive a value. *)
  if Store.backend store <> Store.Rp then
    Error "the cold tier needs the rp backend (--backend rp)"
  else
  match Rp_tier.Cold_store.open_ ?segment_bytes ~dir ~max_bytes () with
  | Error e -> Error e
  | Ok cold ->
      let reg = Store.registry store in
      let t =
        {
          store;
          cold;
          max_bytes;
          min_dead_ratio;
          interval = compact_interval;
          paused = Atomic.make false;
          compacting = Atomic.make false;
          stop_flag = Atomic.make false;
          compactions = Atomic.make 0;
          compact_copied = Atomic.make 0;
          demote_failures =
            Rp_obs.Registry.counter reg
              ~help:"demotions abandoned (tier full or append failure)"
              "tier_demote_failures_total";
          recovery_dropped = 0;
          domain = None;
        }
      in
      let th_demote key data =
        match Rp_tier.Cold_store.append cold ~key ~data with
        | Ok l -> Some (l.Rp_tier.segment, l.Rp_tier.offset, l.Rp_tier.len)
        | Error _ ->
            Rp_obs.Counter.incr t.demote_failures;
            None
      in
      let th_read (segment, offset, len) =
        match Rp_tier.Cold_store.read cold { Rp_tier.segment; offset; len } with
        | Ok kv -> Ok kv
        | Error Rp_tier.Gone -> Error Store.Tier_gone
        | Error Rp_tier.Torn -> Error Store.Tier_torn
      in
      let th_mark_dead (segment, offset, len) =
        Rp_tier.Cold_store.mark_dead cold { Rp_tier.segment; offset; len }
      in
      let th_admit () = not (Atomic.get t.paused) in
      Store.set_tier store
        (Some { Store.th_demote; th_read; th_mark_dead; th_admit });
      Store.set_section store "tier" (Some (stats_kv t));
      register_instruments t reg;
      (match Store.guard store with
      | None -> ()
      | Some guard ->
          Rp_guard.add_source guard ~name:"tier" (fun () ->
              float_of_int (Rp_tier.Cold_store.total_bytes cold)
              /. float_of_int max_bytes);
          (* Emergency pauses compaction and sheds demotions; cold reads
             keep flowing. Reverts as soon as the ladder descends. *)
          Rp_guard.on_transition guard (fun _old next ->
              Atomic.set t.paused (next = Rp_guard.Emergency)));
      t.domain <- Some (Domain.spawn (fun () -> compactor_loop t));
      Ok t

let finish_recovery t =
  let is_live key (loc : Rp_tier.location) =
    Store.tier_location t.store key
    = Some (loc.segment, loc.offset, loc.len)
  in
  let dropped = Rp_tier.Cold_store.finish_recovery t.cold ~is_live in
  t.recovery_dropped <- dropped;
  dropped

let stop t =
  Atomic.set t.stop_flag true;
  (match t.domain with
  | Some d ->
      Domain.join d;
      t.domain <- None
  | None -> ());
  Store.set_tier t.store None;
  Store.set_section t.store "tier" None;
  Rp_tier.Cold_store.close t.cold
