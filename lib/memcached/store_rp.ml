(* The relativistic backend: the paper's port. GETs are wait-free
   lookups; each update runs under the table's own writer stripe for its
   key ([Rp_ht.enter_key]/[leave_key]: stripe = fnv1a hash land mask), so
   a write takes one mutex, as the paper's writer does, and independent
   SETs/DELETEs/CAS from different evloop workers proceed concurrently.
   The CLOCK queue holds (key, last_access seen when enqueued) pairs for
   second-chance eviction; it has its own leaf mutex [clock_mu] — always
   acquired *inside* a stripe (or alone), never the other way around —
   and sweeps are single-flighted through [sweeping] and run with no
   stripe held, locking each victim's stripe as they go. With tier hooks
   installed, sweeps demote victims to the cold tier and GETs promote
   them back. *)

open Store_core

type t = {
  c : Store_core.t;
  (* Under QSBR (zero-cost read sections) readers must respect QSBR
     discipline: the event-loop workers go offline around their poll
     wait, and a writer waiting for a table stripe goes offline. *)
  rp : (string, Item.t) Rp_ht.t;
  clock_mu : Mutex.t;
  clockq : (string * Item.time) Queue.t;
  sweeping : bool Atomic.t;
  (* Promotion single-flight: a flash crowd on one demoted key does one
     disk read. Indexed by the table's stripe mask, but a separate array
     — a promoter holds its promote stripe ACROSS the disk read and only
     then takes the key's table stripe, so promote stripe > table stripe
     in the lock order and the two must not share mutexes. *)
  promote_stripes : Mutex.t array;
}

(* Flight-recorder span names. The read-section and update spans are
   detail-tier (recorded only inside a head-sampled request); the CLOCK
   sweep is control-tier — rare and worth seeing unconditionally. *)
let k_read_section = Rp_trace.intern "store.read_section"
let k_update = Rp_trace.intern "store.update"
let k_evict_sweep = Rp_trace.intern "store.evict_sweep"
let k_tier_demote = Rp_trace.intern "tier.demote"
let k_tier_promote = Rp_trace.intern "tier.promote"

(* --- update locking --- *)

(* A writer of a key runs under the table's stripe for it
   ([Rp_ht.enter_key]/[leave_key]), inside a [store.update] span. *)
let leave_key t stripe span =
  Rp_ht.leave_key t.rp stripe;
  Rp_trace.span_end_sampled k_update span

let with_key t ~hash f =
  let span = Rp_trace.span_begin_sampled k_update in
  let stripe = Rp_ht.enter_key t.rp ~hash in
  match f () with
  | v ->
      leave_key t stripe span;
      v
  | exception e ->
      leave_key t stripe span;
      raise e

(* The CLOCK queue's leaf mutex: holders only touch the queue (no grace
   periods, no stripes), so a blocking lock is safe even under QSBR. *)
let with_clock t f =
  Mutex.lock t.clock_mu;
  let v = f t.clockq in
  Mutex.unlock t.clock_mu;
  v

let clock_push t entry =
  Mutex.lock t.clock_mu;
  Queue.add entry t.clockq;
  Mutex.unlock t.clock_mu

(* --- primitives (the key's table stripe held by callers) --- *)

(* The chunk of an item that has left the table goes back to its class
   only after a grace period: a reader that found the item may still be
   reading its header or copying its value. The writer that retires it
   is in no read section, so it reads nothing of the item afterwards. *)
let retire t item = Item.retire t.c.slab (Rp_ht.rcu t.rp) item

let delete t ~hash key =
  match Rp_ht.remove_locked t.rp ~hash key with
  | None -> false
  | Some item ->
      Slab.refund t.c.slab (Item.footprint t.c.slab ~key_len:(String.length key) item);
      tier_mark_dead t.c item;
      retire t item;
      true

(* CLOCK-queue invariant: a key is enqueued iff its item is hot. Demotion
   stores a marker over a hot item whose queue entry the sweep just popped
   (no push — markers are evicted by tier budget, not the CLOCK); any
   store over a cold marker brings the key back to RAM and re-enqueues.

   One chain walk: the exchange publishes atomically (readers see the old
   or new item, never a torn one) and hands back the item it displaced.
   An overwrite of the same size is charged to the same slab class, so
   its refund and charge would cancel exactly — both are skipped; the
   displaced value's chunk is retired either way. [replaced] returns
   whether the key goes back on the CLOCK queue (a cold marker
   overwritten by a RAM item); [linked] pushes a new hot key itself. *)
let replaced t ~key_len item old =
  let slab = t.c.slab in
  let size = Item.footprint slab ~key_len item in
  let old_size = Item.footprint slab ~key_len old in
  if old_size <> size then begin
    Slab.refund slab old_size;
    ignore (Slab.charge slab size)
  end;
  let push =
    Item.is_cold slab old
    && begin
         tier_mark_dead t.c old;
         not (Item.is_cold slab item)
       end
  in
  retire t old;
  push

let linked t key item =
  let slab = t.c.slab in
  ignore (Slab.charge slab (Item.footprint slab ~key_len:(String.length key) item));
  if not (Item.is_cold slab item) then clock_push t (key, Item.last_access slab item)

let store t ~hash key item =
  match Rp_ht.exchange_locked t.rp ~hash key item with
  | Some old ->
      if replaced t ~key_len:(String.length key) item old then
        clock_push t (key, Item.last_access t.c.slab item)
  | None -> linked t key item

(* A plain SET of the key held in the [len] bytes of [buf] from [off]:
   [store] with the key compared in place, and its op-log record, under
   the key's stripe, taken and released here so no closure is built. A
   new node's key string is the one the table made; an overwrite copies
   the key out only for a CLOCK push or a record. *)
let set t ~hash ~log buf off len item =
  let span = Rp_trace.span_begin_sampled k_update in
  let stripe = Rp_ht.enter_key t.rp ~hash in
  match
    match Rp_ht.exchange_slice_locked t.rp ~hash buf off len item with
    | Rp_ht.Replaced old ->
        let push = replaced t ~key_len:len item old in
        if push || Option.is_some log then begin
          let key = Bytes.sub_string buf off len in
          if push then clock_push t (key, Item.last_access t.c.slab item);
          log_set t.c log ~op:Rp_persist.Record.Tset key item
        end
    | Rp_ht.Linked key ->
        linked t key item;
        log_set t.c log ~op:Rp_persist.Record.Tset key item
  with
  | () -> leave_key t stripe span
  | exception e ->
      leave_key t stripe span;
      raise e

(* Demote one eviction victim to the cold tier: append (key, value) to
   the current segment and swap the item for a compact cold marker that
   keeps flags/expiry/CAS in RAM. Runs under the victim's table stripe
   (the caller's). Returns false — fall back to plain eviction — when no
   tier is attached, the guard is shedding demotions, the item is
   expired (nothing worth keeping), or the append failed/overflowed. *)
let demote t ~hash key item =
  let slab = t.c.slab in
  match t.c.tier with
  | None -> false
  | Some hooks ->
      if (not (hooks.th_admit ())) || Item.is_expired slab item ~now:(now t.c) then
        false
      else begin
        let started = Rp_trace.now_ns () in
        let span = Rp_trace.span_begin_sampled k_tier_demote in
        let demoted =
          match hooks.th_demote key (Item.value t.c.slab item) with
          | Some frame ->
              let vbytes = Item.len slab item in
              let marker =
                Item.cold slab ~cas:(Item.cas slab item) ~flags:(Item.flags slab item)
                  ~exptime:(Item.exptime slab item) ~now:(Item.last_access slab item) frame
              in
              store t ~hash key marker;
              Rp_obs.Counter.incr t.c.tier_demotions;
              (match t.c.heat with
              | None -> ()
              | Some h -> Rp_heat.note_tier_demote h ~vbytes);
              true
          | None -> false
        in
        Rp_trace.span_end_sampled k_tier_demote span;
        let us = (Rp_trace.now_ns () - started) / 1000 in
        Rp_obs.Histogram.observe t.c.tier_demote_us us;
        heat_slo t.c "tier_demote_us" us;
        demoted
      end

(* --- eviction --- *)

let over_budget t = Slab.allocated_bytes t.c.slab > t.c.max_bytes

(* CLOCK second-chance eviction: pop (key, last_access at enqueue); a key
   touched since its enqueue gets requeued with the newer stamp — but only
   while the sweep's second-chance budget lasts. The budget is the queue
   length when the sweep starts, so every loop turn either frees memory,
   drops a stale entry, or spends a chance: a sweep over a table of
   all-hot keys (readers re-touching every item faster than we pop)
   terminates after at most 2x the queue length instead of spinning
   unboundedly. Once the budget is gone the sweep degrades to FIFO, which
   still frees memory.

   The sweeper holds NO stripe across the sweep — it locks each victim's
   own stripe just long enough to re-check and unlink it, so a sweep
   triggered by one writer never stalls writers on unrelated stripes.
   Caller must hold the [sweeping] flag (single-flight). *)
let sweep_locked t =
  if over_budget t then begin
    (* Time the whole sweep, second-chance requeues included: its tail is
       the CLOCK degradation the all-hot torture worries about. *)
    let sweep_start = Rp_trace.now_ns () in
    let sweep_span = Rp_trace.span_begin k_evict_sweep in
    let chances = ref (with_clock t Queue.length) in
    let exhausted = ref false in
    while (not !exhausted) && over_budget t do
      match with_clock t Queue.take_opt with
      | None -> exhausted := true
      | Some (key, seen_access) ->
          let hash = hash_key key in
          with_key t ~hash (fun () ->
              match Rp_ht.find_opt_hashed t.rp ~hash key with
              | None -> () (* already deleted *)
              | Some item when Item.is_cold t.c.slab item ->
                  (* Stale queue entry: the key was demoted and re-stored
                     since (markers live outside the CLOCK). Just drop
                     the entry — the marker is the tier's to manage. *)
                  ()
              | Some item ->
                  let last = Item.last_access t.c.slab item in
                  if last > seen_access && !chances > 0 then begin
                    decr chances;
                    Rp_obs.Counter.incr t.c.clock_chances;
                    clock_push t (key, last)
                  end
                  else if not (demote t ~hash key item) then begin
                    ignore (delete t ~hash key);
                    Rp_obs.Counter.incr t.c.evicted
                  end)
    done;
    Rp_trace.span_end k_evict_sweep sweep_span;
    let us = (Rp_trace.now_ns () - sweep_start) / 1000 in
    Rp_obs.Histogram.observe t.c.evict_sweep_us us;
    heat_slo t.c "eviction_sweep_us" us
  end

let single_flight t =
  Fun.protect ~finally:(fun () -> Atomic.set t.sweeping false) (fun () -> sweep_locked t)

(* Post-store budget enforcement. Mutating commands call this AFTER
   releasing their stripe (a sweep locks victim stripes itself); the CAS
   single-flights concurrent triggers so racing writers don't convoy on
   eviction — the one sweeper runs until the heap fits. *)
let sweep t =
  if over_budget t && Atomic.compare_and_set t.sweeping false true then single_flight t

(* Blocking variant for [evict_to_budget]: callers there (post-recovery
   attach, the guard's Emergency actuator) need the budget actually met on
   return, so losing the single-flight race means waiting the sweeper out
   and re-checking. *)
let rec evict_to_budget t =
  if over_budget t then
    if Atomic.compare_and_set t.sweeping false true then begin
      let before = Slab.allocated_bytes t.c.slab in
      single_flight t;
      (* A sweep that freed nothing had an empty CLOCK queue: with a
         tier attached the residue can be all cold markers, which are
         not evictable — stop rather than spin on an unmeetable
         budget. *)
      if Slab.allocated_bytes t.c.slab < before then evict_to_budget t
    end
    else begin
      Domain.cpu_relax ();
      evict_to_budget t
    end

(* --- GET --- *)

let expire_if_dead t ~now key =
  let hash = hash_key key in
  with_key t ~hash (fun () ->
      match Rp_ht.find_opt_hashed t.rp ~hash key with
      | Some again when Item.is_expired t.c.slab again ~now ->
          ignore (delete t ~hash key);
          Rp_obs.Counter.incr t.c.expired
      | Some _ | None -> ())

(* What a key's [vlen] holds, once its section has closed, when the
   item it found could not be served inside the section
   ({!Store_core.Hits.serve} leaves them). *)
let expired_mark = -2
let cold_mark = -3

(* A promotion's look at its key, in a read section of its own, which
   reads all it needs of the item before it closes: once it has, the
   chunk may be reused. A live hot item is served into the hits at [j]
   as a batch serves it ({!Store_core.Hits.serve}) and counted. Of a
   cold marker, the header and the frame are kept for the promotion
   that follows the section. *)
type cold = {
  marker : Item.t;
  cas : int;
  flags : int;
  exptime : Item.time;
  frame : int * int * int;
}

type lookup = Hit | Expired | Cold of cold | Absent

let lookup_in_section t (hits : Hits.t) j ~hash ~now key =
  let slab = t.c.slab in
  match Rp_ht.find_opt_hashed t.rp ~hash key with
  | None -> Absent
  | Some item ->
      let len = Hits.serve hits slab j item ~now in
      if len >= 0 then begin
        count_hit t.c key len;
        Hit
      end
      else begin
        hits.vlen.(j) <- -1;
        if len = expired_mark then Expired
        else
          Cold
            {
              marker = item;
              cas = Item.cas slab item;
              flags = Item.flags slab item;
              exptime = Item.exptime slab item;
              frame = Option.get (Item.location slab item);
            }
      end

let lookup t hits j ~hash ~now key =
  let rcu = Rp_ht.rcu t.rp in
  Rcu.read_lock_current rcu;
  match lookup_in_section t hits j ~hash ~now key with
  | found ->
      Rcu.read_unlock_current rcu;
      found
  | exception e ->
      Rcu.read_unlock_current rcu;
      raise e

(* Resolve a cold hit: one positioned segment read, then reinsert under
   the key's table stripe (promote-on-access). The disk read happens
   with no store lock held — only the key's promote stripe, whose sole
   job is single-flighting: a flash crowd on one demoted key queues
   here and every loser finds the item already hot on its own pass.

   Each attempt looks the key up afresh. Races are re-resolved that way
   (bounded retries): a compaction can relocate the marker mid-read
   (read returns [Tier_gone] — the fresh marker points at the copy), a
   SET can replace it (we find it hot and serve that), a DELETE can win
   (miss). A torn record is final: the value is gone, so the marker is
   dropped — later GETs miss fast instead of re-reading a bad frame. *)
(* The marker a section read is still the key's binding ([cur], under
   the key's stripe): the same chunk, holding the same version's marker
   for the same frame. A chunk retired and reused for another marker
   since reads differently. *)
let still_marker t m (cur : Item.t) =
  (cur :> int) = (m.marker :> int)
  && Item.cas t.c.slab cur = m.cas
  && Item.location t.c.slab cur = Some m.frame

let rec promote_attempt t ~hooks hits j ~hash key tries =
  let now = now t.c in
  match lookup t hits j ~hash ~now key with
  | Hit -> ()
  | Absent -> count_miss t.c key
  | Expired ->
      expire_if_dead t ~now key;
      count_miss t.c key
  | Cold m -> (
      match read_cold t.c hooks key m.frame with
      | Ok data ->
          let promoted =
            with_key t ~hash (fun () ->
                match Rp_ht.find_opt_hashed t.rp ~hash key with
                | Some cur when still_marker t m cur ->
                    (* Marker unchanged since the read: publish the
                       hot item ([store] refunds the marker, marks its
                       frame dead, re-enqueues in the CLOCK). *)
                    store t ~hash key
                      (Item.of_string t.c.slab ~cas:m.cas ~flags:m.flags ~exptime:m.exptime ~now
                         data);
                    true
                | _ -> false)
          in
          if promoted then begin
            Rp_obs.Counter.incr t.c.tier_promotions;
            (match t.c.heat with
            | None -> ()
            | Some h -> Rp_heat.note_tier_promote h ~vbytes:(String.length data));
            count_hit t.c key (String.length data);
            Hits.put_string hits j ~flags:m.flags ~cas:m.cas data
          end
          else if tries > 0 then promote_attempt t ~hooks hits j ~hash key (tries - 1)
          else count_miss t.c key
      | Error Tier_gone when tries > 0 -> promote_attempt t ~hooks hits j ~hash key (tries - 1)
      | Error e ->
          if e = Tier_gone then Rp_obs.Counter.incr t.c.tier_read_errors;
          with_key t ~hash (fun () ->
              match Rp_ht.find_opt_hashed t.rp ~hash key with
              | Some cur when still_marker t m cur -> ignore (delete t ~hash key)
              | _ -> ());
          count_miss t.c key)

(* A batch's key [j] whose item was cold: the promoted value put into
   the hits, or a miss. *)
let promote t hits j key =
  match t.c.tier with
  | None ->
      (* A marker with no tier attached (shutdown window): unreadable. *)
      count_miss t.c key
  | Some hooks ->
      let span = Rp_trace.span_begin_sampled k_tier_promote in
      let hash = hash_key key in
      let m = t.promote_stripes.(hash land (Array.length t.promote_stripes - 1)) in
      Rcu.mutex_lock (Rp_ht.rcu t.rp) m;
      Fun.protect
        ~finally:(fun () ->
          Mutex.unlock m;
          Rp_trace.span_end_sampled k_tier_promote span)
        (fun () -> promote_attempt t ~hooks hits j ~hash key 3);
      (* Promotion re-charged the full value: settle the budget (the sweep
         may well demote something colder in its place). *)
      sweep t

(* The batch size goes on the read-section span's end, and only when the
   span is recorded: passing [~arg] allocates an option. *)
let end_read_section section ~n =
  if section >= 0 then Rp_trace.span_end_sampled ~arg:n k_read_section section

let batch_keys = 64

(* Bytes of a hit's value that [read_section] asks the cache for ahead
   of its copy, with its header: the first lines; a longer value
   streams in behind them during the copy. *)
let value_prefetch_bytes = 256

(* The read section over keys [first, first + n) of [keys], whose
   replies go to [hits] from index [first - base]: the staged table
   walk, then one more stage that asks the cache for every hit's chunk
   — its header and the first [value_prefetch_bytes] of its value — and
   last every hit served from its chunk by one call
   ({!Store_core.Hits.serve}: expiry checked, access stamped, flags, CAS
   and value copied into the hits), which the stage before leaves time
   for the chunk lines to arrive (a lone key, with nothing to overlap,
   skips that stage). A live hot hit is counted here, inside
   the section: once it closes, the chunk may be retired and reused. An
   expired or cold item is only marked; [settle_batch] serves it after
   the section, as that may take table stripes or read the disk. *)
let read_section t (keys : Protocol.Keys.t) found (hits : Hits.t) ~base ~now first n =
  Rp_ht.find_batch_hashed t.rp ~buf:keys.buf ~offs:keys.offs ~lens:keys.lens
    ~hashes:keys.hashes ~first found n;
  let slab = t.c.slab in
  if n > 1 then
    for j = 0 to n - 1 do
      match Array.unsafe_get found j with
      | Rp_list.Node nd -> Item.prefetch slab nd.value value_prefetch_bytes
      | Rp_list.Null -> ()
    done;
  let at = first - base in
  for j = 0 to n - 1 do
    match Array.unsafe_get found j with
    | Rp_list.Node nd ->
        let len = Hits.serve hits slab (at + j) nd.value ~now in
        if len >= 0 then count_hit t.c nd.key len
    | Rp_list.Null -> ()
  done

(* The keys of the section just closed that it could not serve: a miss
   is counted; an expired item counts as a miss and is reaped under its
   own stripe; a cold one is promoted (stripes and a disk read). A
   batch passes its node's stored key, so no outcome allocates one. *)
let settle_batch t keys found (hits : Hits.t) ~base ~now first n =
  for j = 0 to n - 1 do
    let i = first + j in
    match Array.unsafe_get found j with
    | Rp_list.Null -> count_miss_key t.c keys i
    | Rp_list.Node nd ->
        let mark = Array.unsafe_get hits.vlen (i - base) in
        if mark = expired_mark then begin
          hits.vlen.(i - base) <- -1;
          count_miss t.c nd.key;
          expire_if_dead t ~now nd.key
        end
        else if mark = cold_mark then begin
          hits.vlen.(i - base) <- -1;
          promote t hits (i - base) nd.key
        end
  done

(* One read section per [batch_keys] keys of [first, stop), each settled
   as soon as it closes. The walk's array is fresh, so it is young: the
   walk's stores into it never take the write barrier's major-heap path
   (remembered set, darkening the value overwritten). *)
let rec batches t ~now (keys : Protocol.Keys.t) found hits ~base first stop =
  if first < stop then begin
    let m = Int.min batch_keys (stop - first) in
    let rcu = Rp_ht.rcu t.rp in
    let section = Rp_trace.span_begin_sampled k_read_section in
    Rcu.read_lock_current rcu;
    (match read_section t keys found hits ~base ~now first m with
    | () -> Rcu.read_unlock_current rcu
    | exception e ->
        Rcu.read_unlock_current rcu;
        end_read_section section ~n:m;
        raise e);
    end_read_section section ~n:m;
    settle_batch t keys found hits ~base ~now first m;
    batches t ~now keys found hits ~base (first + m) stop
  end

let get_keys t ~now (keys : Protocol.Keys.t) ~first ~n hits =
  Hits.prepare hits n;
  batches t ~now keys (Array.make (Int.min n batch_keys) Rp_list.Null) hits ~base:first first
    (first + n)

(* The cache lines a run's SETs and GETs will load, asked for at once
   before the run is served key by key: after the table's own stages,
   each matching first node's chunk — its header (a SET's accounting
   reads the displaced item's, a GET serves from it) and the first byte
   of its value. *)
let prefetch t (keys : Protocol.Keys.t) =
  let slab = t.c.slab in
  Rp_ht.prefetch_batch_hashed t.rp ~hashes:keys.hashes ~first:0 keys.n ~hint:(fun item ->
      Item.prefetch slab item 1)

(* --- the snapshotter's walk --- *)

(* Cold items would otherwise walk out with no value — and a snapshot
   that persisted a marker's "" would LOSE the value once log compaction
   pruned the original SET record. Read the segment through instead,
   outside the walk's read sections. The marker can move under us
   (compaction relocates, a SET replaces, a DELETE wins): re-resolve from
   the table, bounded, copying a value that turned hot inside the
   section that found it; a key that vanished was deleted (logged), a
   torn frame is already lost either way. *)
let rec iter_resolve_cold t ~hooks ~f key tries =
  let slab = t.c.slab in
  let found =
    Rcu.with_read_current (Rp_ht.rcu t.rp) (fun () ->
        match Rp_ht.find t.rp key with
        | Some item ->
            let flags = Item.flags slab item
            and exptime = Item.exptime slab item
            and cas = Item.cas slab item in
            let data =
              match Item.location slab item with
              | Some frame -> Error frame
              | None -> Ok (Item.value slab item)
            in
            Some (flags, exptime, cas, data)
        | None -> None)
  in
  match found with
  | None -> ()
  | Some (flags, exptime, cas, Ok data) -> f key ~flags ~exptime ~cas data
  | Some (flags, exptime, cas, Error frame) -> (
      match check_frame t.c key (hooks.th_read frame) with
      | Ok data -> f key ~flags ~exptime ~cas data
      | Error Tier_gone when tries > 0 -> iter_resolve_cold t ~hooks ~f key (tries - 1)
      | Error Tier_gone -> Rp_obs.Counter.incr t.c.tier_read_errors
      | Error Tier_torn -> ())

(* A batched relativistic read (bounded read sections, never a table
   stripe), so a multi-second walk over a large table neither blocks
   writers nor extends any grace period beyond one batch. Each item's
   header and value are read inside the section that found it. *)
let iter t f =
  let slab = t.c.slab in
  let cold = ref [] in
  let restarts =
    Rp_ht.iter_batched t.rp ~f:(fun key item ->
        if Item.is_cold slab item then cold := key :: !cold
        else
          f key ~flags:(Item.flags slab item) ~exptime:(Item.exptime slab item)
            ~cas:(Item.cas slab item) (Item.value slab item))
  in
  (match (!cold, t.c.tier) with
  | [], _ | _, None -> ()
  | keys, Some hooks -> List.iter (fun key -> iter_resolve_cold t ~hooks ~f key 3) keys);
  restarts

(* How long a grace period waits on one reader before the watchdog
   counts a stall (the guard's [rcu] source). *)
let stall_budget = 1.0

let create (c : Store_core.t) ~rcu_mode ~initial_size ~auto_resize ~stripes =
  let rcu = Rcu.create ~mode:rcu_mode ~stall_budget () in
  let rp =
    Rp_ht.create ~rcu ~initial_size ~auto_resize ~stripes ~hash:hash_key ~equal:String.equal ()
  in
  let nstripes = Rp_ht.stripe_count rp in
  let t =
    {
      c;
      rp;
      clock_mu = Mutex.create ();
      clockq = Queue.create ();
      sweeping = Atomic.make false;
      promote_stripes = Array.init nstripes (fun _ -> Mutex.create ());
    }
  in
  let observe () =
    Rp_ht.observe rp c.registry;
    Rcu.observe rcu c.registry
  in
  let live ~hash ~now key =
    match Rp_ht.find_opt_hashed rp ~hash key with
    | Some item when not (Item.is_expired c.slab item ~now) -> Some item
    | Some _ | None -> None
  in
  {
    kind = Rp;
    rcu_mode;
    stripes = nstripes;
    hash = hash_key;
    with_key = (fun ~hash f -> with_key t ~hash f);
    with_all = (fun f -> Rp_ht.with_all_stripes rp f);
    live;
    store = (fun ~hash key item -> store t ~hash key item);
    set = (fun ~hash ~log buf off len item -> set t ~hash ~log buf off len item);
    remove = (fun ~hash key -> delete t ~hash key);
    keys = (fun () -> Rp_ht.fold rp ~init:[] ~f:(fun acc k _ -> k :: acc));
    budget = (fun () -> sweep t);
    evict_to_budget = (fun () -> evict_to_budget t);
    get_keys = (fun ~now keys ~first ~n hits -> get_keys t ~now keys ~first ~n hits);
    prefetch = (fun keys -> prefetch t keys);
    iter = (fun f -> iter t f);
    length = (fun () -> Rp_ht.length rp);
    buckets = (fun () -> Rp_ht.size rp);
    reader_offline = (fun () -> Rcu.offline_current rcu);
    observe;
    stripe_heat = (fun () -> Rp_ht.stripe_heat rp);
    validate = (fun () -> Rp_ht.validate rp);
  }
