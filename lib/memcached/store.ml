open Store_core

type backend = Store_core.kind = Lock | Rp
type rcu_mode = Store_core.rcu_mode = Memb | Qsbr
type stored_result = Stored | Not_stored | Exists | Not_found | Too_large
type counter_result = Cnotfound | Cnon_numeric | Cvalue of int
type tier_read_error = Store_core.tier_read_error = Tier_gone | Tier_torn

module Hits = Store_core.Hits

type tier_hooks = Store_core.tier_hooks = {
  th_demote : string -> string -> (int * int * int) option;
  th_read : int * int * int -> (string * string, tier_read_error) result;
  th_mark_dead : int * int * int -> unit;
  th_admit : unit -> bool;
}

type t = {
  c : Store_core.t;
  b : Store_core.backend;
  (* Persistence hook, installed by [Persist.attach]: called with the op
     record of every acknowledged mutation, inside the mutated key's
     lock, so the op log's per-key order is the store's per-key order
     (records are state-based and replay-idempotent, so cross-key
     interleaving is free — see [Rp_persist.Record]). *)
  mutable persist_hook : (Rp_persist.Record.t -> unit) option;
  (* Overload guard, attached by [Guard.install]: dispatch consults it to
     shed mutations; the [guard] section renders its live ladder state. *)
  mutable guard : Rp_guard.t option;
  (* A following replica refuses client mutations (dispatch checks this);
     the replication stream itself applies through [replicate], which
     bypasses the flag. *)
  mutable read_only : bool;
  mutable promote_hook : (unit -> (string, string) result) option;
  (* [stats <name>] answers: built in at [create]; the tier and cluster
     glue plug their live sections in through [set_section]. *)
  mutable sections : (string * (unit -> (string * string) list)) list;
}

let backend t = t.b.kind
let rcu_mode t = t.b.rcu_mode
let write_stripes t = t.b.stripes
let validate t = t.b.validate ()
let reader_offline t = t.b.reader_offline ()
let registry t = t.c.registry
let max_bytes t = t.c.max_bytes
let set_guard t g = t.guard <- g
let guard t = t.guard
let set_read_only t b = t.read_only <- b
let read_only t = t.read_only
let set_promote_hook t f = t.promote_hook <- f
let set_tier t h = t.c.tier <- h
let set_persist_hook t hook = t.persist_hook <- hook
let now t = Item.time_of_float (t.c.clock ())
let heat t = t.c.heat

let promote t =
  match t.promote_hook with
  | None -> Error "not a replica"
  | Some f -> f ()

(* memcached's REALTIME_MAXDELTA: protocol exptimes up to 30 days are
   relative seconds; anything larger is an absolute Unix timestamp. *)
let realtime_maxdelta = 30 * 24 * 60 * 60

(* Protocol exptime -> absolute item time, resolved once here at the
   original operation ([clock] is the operation's own clock reading). The
   persistence log stores this absolute value, so replay after a restart
   re-expires items at the same wall-clock instant no matter when
   recovery runs — a relative offset re-applied at replay time would
   silently extend every TTL by the downtime. The sum is formed in float
   seconds, so the logged float converts back to the same item time. *)
let absolute_exptime ~clock exptime =
  if exptime = 0 then 0 (* never expires *)
  else if exptime < 0 then 1 (* expired since the dawn of time *)
  else if exptime <= realtime_maxdelta then
    Item.time_of_float (clock +. float_of_int exptime) (* relative to now *)
  else Item.time_of_float (float_of_int exptime) (* already absolute *)

(* --- persistence hook --- *)

(* Callers invoke these while holding the key's lock, which is what keeps
   the log a faithful per-key history. *)
let record t r = match t.persist_hook with None -> () | Some h -> h r

let record_set t ~op key item = log_set t.c t.persist_hook ~op key item

(* Mutations note their key in the heat plane (one branch when off);
   [heat_mutation] is for those with no payload of their own (touch,
   incr/decr). *)
let[@inline] heat_set t key ~vbytes =
  match t.c.heat with None -> () | Some h -> Rp_heat.note_set h ~vbytes key

let[@inline] heat_mutation t key =
  match t.c.heat with None -> () | Some h -> Rp_heat.note_set h key

(* --- GET --- *)

let batch_keys = Store_rp.batch_keys

let clock t = t.c.clock ()

(* The multiget path: one [cmd_get] add for the whole batch, read at the
   caller's clock reading. *)
let get_keys t ~clock (keys : Protocol.Keys.t) ~first ~n hits =
  if first < 0 || n < 0 || first > keys.n - n then invalid_arg "Store.get_keys";
  Rp_obs.Counter.add t.c.cmd_get n;
  t.b.get_keys ~now:(Item.time_of_float clock) keys ~first ~n hits

let prefetch t keys = t.b.prefetch keys

(* A domain's key slices and hits for [get_many], reused across calls.
   Systhreads on one domain (a follower's apply thread, an in-process
   bench client) share them; one that finds them [busy] (a sibling was
   switched out mid-call) stages into fresh ones. They stay [busy] until
   the replies are built from the hits: building them allocates, and a
   sibling switched in there must not overwrite the hits. *)
type staging = { mutable busy : bool; keys : Protocol.Keys.t; hits : Hits.t }

let fresh_staging () = { busy = false; keys = Protocol.Keys.create (); hits = Hits.create () }
let staging_key = Domain.DLS.new_key fresh_staging

(* The replies: each hit's value is a fresh string copied from the
   staging, its [vkey] the requested key. *)
let rec values ~with_cas hits j = function
  | [] -> []
  | key :: rest ->
      if not (Hits.hit hits j) then values ~with_cas hits (j + 1) rest
      else
        let v : Protocol.value =
          {
            vkey = key;
            vflags = hits.Hits.flags.(j);
            vdata = Hits.value hits j;
            vcas = (if with_cas then Some hits.cas.(j) else None);
          }
        in
        v :: values ~with_cas hits (j + 1) rest

(* String keys in, replies out, through the same lookup as a text GET
   run: the keys are copied into the domain's slices first. *)
let get_many t ?(with_cas = false) keys =
  let shared = Domain.DLS.get staging_key in
  let s = if shared.busy then fresh_staging () else shared in
  s.busy <- true;
  match
    Protocol.Keys.stage s.keys keys;
    get_keys t ~clock:(clock t) s.keys ~first:0 ~n:s.keys.n s.hits;
    values ~with_cas s.hits 0 keys
  with
  | replies ->
      s.busy <- false;
      replies
  | exception e ->
      s.busy <- false;
      raise e

let get t key =
  Rp_obs.Counter.incr t.c.cmd_get;
  t.b.get ~now:(now t) key

(* --- storage commands --- *)

let fits t ~key_len ~data_len = Slab.fits t.c.slab (key_len + data_len + Item.overhead_bytes)
let fits_slab t ~key ~data = fits t ~key_len:(String.length key) ~data_len:(String.length data)

(* Run [f] under the key's lock, then take the budget step with the lock
   released (a CLOCK sweep locks each victim's stripe itself). *)
let mutate t ~hash f =
  let result = t.b.with_key ~hash f in
  t.b.budget ();
  result

(* [guard] inspects the current live item (if any) and decides whether the
   store proceeds; shared by add/replace/cas. A plain [set] has none: it
   always stores, so it skips the lookup a guard would need — the key's
   lock already serializes it against every other writer of the key, and
   the backend's store finds the old item anyway. *)
let storage_command ?guard t ~op ~key ~flags ~exptime ~data =
  Rp_obs.Counter.incr t.c.cmd_set;
  heat_set t key ~vbytes:(String.length data);
  let clock = t.c.clock () in
  let now = Item.time_of_float clock in
  let exptime = absolute_exptime ~clock exptime in
  if not (fits_slab t ~key ~data) then Too_large
  else
    let hash = t.b.hash key in
    mutate t ~hash (fun () ->
        let verdict =
          match guard with
          | None -> Ok ()
          | Some guard -> guard (t.b.live ~hash ~now key)
        in
        match verdict with
        | Error result -> result
        | Ok () ->
            let item = Item.of_string t.c.slab ~flags ~exptime ~now data in
            t.b.store ~hash key item;
            record_set t ~op key item;
            Stored)

let set t ~key ~flags ~exptime ~data =
  storage_command t ~op:Rp_persist.Record.Tset ~key ~flags ~exptime ~data

(* A SET read in place: key [i] of [keys] (its hash already computed),
   its data the [len] bytes of [keys.buf] from [off], at the caller's
   reading [clock] of the store's clock. [storage_command]'s steps with
   no guard, in one route whatever is attached: the data is copied
   straight from the buffer into a slab chunk once it is known to fit,
   and the backend takes the key's lock
   itself (no closure) and compares the key in place. The key string is
   made only for a new binding, the heat plane or the op log. *)
let set_slice t ~clock (keys : Protocol.Keys.t) i ~flags ~exptime ~off ~len =
  if i < 0 || i >= keys.n || off < 0 || len < 0 || off > Bytes.length keys.buf - len then
    invalid_arg "Store.set_slice";
  Rp_obs.Counter.incr t.c.cmd_set;
  (match t.c.heat with
  | None -> ()
  | Some h -> Rp_heat.note_set h ~vbytes:len (Protocol.Keys.key keys i));
  let koff = keys.offs.(i) and klen = keys.lens.(i) in
  if not (fits t ~key_len:klen ~data_len:len) then Too_large
  else begin
    let item =
      Item.create t.c.slab ~flags ~exptime:(absolute_exptime ~clock exptime)
        ~now:(Item.time_of_float clock) keys.buf off len
    in
    t.b.set ~hash:keys.hashes.(i) ~log:t.persist_hook keys.buf koff klen item;
    t.b.budget ();
    Stored
  end

let add t ~key ~flags ~exptime ~data =
  storage_command t ~op:Rp_persist.Record.Tadd ~key ~flags ~exptime ~data
    ~guard:(function
    | Some _ -> Error Not_stored
    | None -> Ok ())

let replace t ~key ~flags ~exptime ~data =
  storage_command t ~op:Rp_persist.Record.Treplace ~key ~flags ~exptime ~data
    ~guard:(function
    | Some _ -> Ok ()
    | None -> Error Not_stored)

let cas t ~key ~flags ~exptime ~data ~unique =
  storage_command t ~op:Rp_persist.Record.Tcas ~key ~flags ~exptime ~data
    ~guard:(function
    | None -> Error Not_found
    | Some item -> if Item.cas t.c.slab item = unique then Ok () else Error Exists)

(* The read-modify-write commands — append/prepend, incr/decr, touch:
   under the key's lock, [f] gets the live item and its real value (a
   demoted key's is read from the tier: the marker's "" would turn a
   counter non-numeric, or store just a suffix). A frame lost for good
   means the value is gone: the marker is dropped and the command
   answers [missing]. *)
let read_modify_write t ~key ~now ~missing f =
  let hash = t.b.hash key in
  mutate t ~hash (fun () ->
      match t.b.live ~hash ~now key with
      | None -> missing
      | Some item -> (
          match resolve_cold_locked t.c key item with
          | None ->
              ignore (t.b.remove ~hash key);
              missing
          | Some data -> f ~hash item data))

(* Publish and log a read-modify-write result (key's lock held). *)
let put t ~hash ~op key fresh =
  t.b.store ~hash key fresh;
  record_set t ~op key fresh

(* append/prepend store the concatenation, keeping the existing flags
   and expiry (memcached semantics). *)
let concat_command t ~op ~key ~data ~build =
  Rp_obs.Counter.incr t.c.cmd_set;
  heat_set t key ~vbytes:(String.length data);
  let now = now t in
  read_modify_write t ~key ~now ~missing:Not_stored (fun ~hash item old ->
      let combined = build old data in
      if not (fits_slab t ~key ~data:combined) then Too_large
      else begin
        put t ~hash ~op key
          (Item.of_string t.c.slab ~flags:(Item.flags t.c.slab item)
             ~exptime:(Item.exptime t.c.slab item) ~now combined);
        Stored
      end)

let append t ~key ~data =
  concat_command t ~op:Rp_persist.Record.Tappend ~key ~data
    ~build:(fun old d -> old ^ d)

let prepend t ~key ~data =
  concat_command t ~op:Rp_persist.Record.Tprepend ~key ~data
    ~build:(fun old d -> d ^ old)

let delete t key =
  Rp_obs.Counter.incr t.c.deletes;
  (match t.c.heat with None -> () | Some h -> Rp_heat.note_delete h key);
  let hash = t.b.hash key in
  t.b.with_key ~hash (fun () ->
      let deleted = t.b.remove ~hash key in
      (* Tombstone even on NOT_FOUND: eviction is not logged, so a key can
         be absent from memory yet still durable (plain eviction is the
         tier's fallback when a demote fails) — an acknowledged DELETE
         must leave it durably dead either way or it resurrects on
         replay. Replaying a delete of a missing key is a no-op. *)
      record t (Rp_persist.Record.Delete key);
      deleted)

(* incr/decr rewrite the stored decimal string; decr saturates at zero. *)
let counter_command t ~op key delta ~apply =
  heat_mutation t key;
  let now = now t in
  read_modify_write t ~key ~now ~missing:Cnotfound (fun ~hash item data ->
      match int_of_string_opt (String.trim data) with
      | None -> Cnon_numeric
      | Some n ->
          let next = apply n delta in
          (* Logged as the produced value, not the delta: replaying an
             incr against a snapshot that already absorbed it must not
             double. *)
          put t ~hash ~op key
            (Item.of_string t.c.slab ~flags:(Item.flags t.c.slab item)
               ~exptime:(Item.exptime t.c.slab item) ~now (string_of_int next));
          Cvalue next)

let incr t key delta =
  counter_command t ~op:Rp_persist.Record.Tincr key delta
    ~apply:(fun n d -> n + d)

let decr t key delta =
  counter_command t ~op:Rp_persist.Record.Tdecr key delta
    ~apply:(fun n d -> max 0 (n - d))

(* Touch on a demoted key promotes it: the new expiry is durably logged
   as a state record, which carries the full value. *)
let touch t ~key ~exptime =
  heat_mutation t key;
  let clock = t.c.clock () in
  let now = Item.time_of_float clock in
  let exptime = absolute_exptime ~clock exptime in
  read_modify_write t ~key ~now ~missing:false (fun ~hash item data ->
      put t ~hash ~op:Rp_persist.Record.Ttouch key
        (Item.of_string t.c.slab ~cas:(Item.cas t.c.slab item) ~flags:(Item.flags t.c.slab item)
           ~exptime ~now data);
      true)

let flush_all_with t ~log =
  t.b.with_all (fun () ->
      List.iter (fun k -> ignore (t.b.remove ~hash:(t.b.hash k) k)) (t.b.keys ());
      if log then record t Rp_persist.Record.Flush_all)

let flush_all t = flush_all_with t ~log:true
let items t = t.b.length ()

(* --- persistence plumbing (see [Persist] for the manager) --- *)

(* The snapshotter's walk: bounded read sections on the Rp backend (cold
   values read through from the tier), the global lock on Lock. *)
let iter_items t ~f = t.b.iter f

(* Apply a recovered or replicated record: same primitives as the live
   commands, but no command counters (neither a warm restart nor the
   replication stream is client traffic) and no budget step — replay may
   overshoot the budget; the post-recovery sweep in {!Persist.attach}
   settles the heap once the full recovered state is known. With [log],
   the record is re-logged through the persist hook inside the key's lock
   — that is how a follower's own oplog stays a faithful linearization of
   what it applied, so it can itself recover, snapshot, and (after
   promotion) lead. Recovery replay uses [log:false]: it must not re-log
   itself. Already-expired items are dropped rather than stored —
   deterministic, since records carry absolute expiry times. *)
let apply_record ?(log = false) t r =
  let locked key f =
    let hash = t.b.hash key in
    t.b.with_key ~hash (fun () ->
        f hash;
        if log then record t r)
  in
  match r with
  | Rp_persist.Record.Set { key; flags; exptime; cas; data; _ } ->
      Item.note_restored_cas cas;
      let now = now t in
      let exptime = Item.time_of_float exptime in
      locked key (fun hash ->
          if exptime > 0 && exptime <= now then ignore (t.b.remove ~hash key)
          else t.b.store ~hash key (Item.of_string t.c.slab ~cas ~flags ~exptime ~now data))
  | Rp_persist.Record.Delete key -> locked key (fun hash -> ignore (t.b.remove ~hash key))
  | Rp_persist.Record.Flush_all -> flush_all_with t ~log

let restore t r = apply_record ~log:false t r
let replicate t r = apply_record ~log:true t r

let bytes t = Slab.allocated_bytes t.c.slab
let slab_stats t = Slab.stats t.c.slab
let fragmentation t = Slab.fragmentation t.c.slab
let evictions t = Rp_obs.Counter.read t.c.evicted
let tier_demotions t = Rp_obs.Counter.read t.c.tier_demotions
let tier_promotions t = Rp_obs.Counter.read t.c.tier_promotions

let tier_active t =
  match t.c.tier with Some hooks -> hooks.th_admit () | None -> false

(* --- compaction plumbing (the [Tier] glue drives it) --- *)

let tier_location t key =
  let hash = t.b.hash key in
  t.b.with_key ~hash (fun () ->
      match t.b.live ~hash ~now:(now t) key with
      | Some item -> Item.location t.c.slab item
      | None -> None)

(* Copying-compaction step: under the key's lock, verify the marker still
   points at [from_] and, if so, run [relocate] (the glue's
   append-a-copy-to-the-head) and store a marker for the new location —
   the same size, so the slab accounting stands, and the displaced frame
   is marked dead through the tier hook. False means the record was
   already dead (promoted, overwritten, deleted) or the copy failed (tier
   full): nothing was changed. *)
let tier_relocate t ~key ~from_ ~relocate =
  let hash = t.b.hash key in
  let slab = t.c.slab in
  t.b.with_key ~hash (fun () ->
      match t.b.live ~hash ~now:(now t) key with
      | Some item when Item.location slab item = Some from_ -> (
          match relocate () with
          | Some frame ->
              t.b.store ~hash key
                (Item.cold slab ~cas:(Item.cas slab item) ~flags:(Item.flags slab item)
                   ~exptime:(Item.exptime slab item) ~now:(Item.last_access slab item) frame);
              true
          | None -> false)
      | Some _ | None -> false)

(* On-demand budget sweep: bring the heap back under [max_bytes] now
   instead of waiting for the next store to trigger eviction. Used by
   post-recovery attach (a restarted node must not serve over budget) and
   as the guard's Emergency actuator. Returns the number evicted. *)
let evict_to_budget t =
  let before = evictions t in
  t.b.evict_to_budget ();
  evictions t - before

(* --- stats sections --- *)

let starts_with prefixes name =
  List.exists (fun prefix -> String.starts_with ~prefix name) prefixes

(* Registry instruments whose names start with one of [prefixes], less
   any already among the [except] lines. *)
let instruments ?(except = []) t prefixes =
  Rp_obs.Registry.to_stats
    ~filter:(fun n -> starts_with prefixes n && not (List.mem_assoc n except))
    t.c.registry

(* A plane's section: [<name>_enabled 0] while it is off; once on,
   [<name>_enabled 1] and its live lines. *)
let plane name = function
  | None -> [ (name ^ "_enabled", "0") ]
  | Some live -> (name ^ "_enabled", "1") :: live ()

let set_section t name live =
  t.sections <- (name, fun () -> plane name live) :: List.remove_assoc name t.sections

let stats_section t name =
  Option.map (fun section -> section ()) (List.assoc_opt name t.sections)

(* The instrument families a named section owns, kept out of the default
   section — except [tier_demotions_total], which stays right next to
   [evictions]: "moved to disk" vs "lost" is an operator-facing
   distinction, not tier-plane internals. *)
let owned = [ "rp_ht_"; "rcu_"; "persist_"; "trace_"; "guard_"; "tier_"; "heat_" ]

let stats t =
  ("backend", match t.b.kind with Lock -> "lock" | Rp -> "rp")
  :: Rp_obs.Registry.to_stats
       ~filter:(fun n -> n = "tier_demotions_total" || not (starts_with owned n))
       t.c.registry

let heat_json ?n t =
  match t.c.heat with
  | None -> "{\"heat_enabled\":false}"
  | Some h -> Rp_heat.to_json ?n h

(* "stats reset": clear the resettable workload-insight state — heat
   sketches, exemplar cells, and every registry histogram — while
   leaving monotonic counters (cmd_get, evictions, ...) untouched, as
   real memcached does. *)
let reset_stats t =
  (match t.c.heat with None -> () | Some h -> Rp_heat.reset h);
  Rp_obs.Registry.reset_histograms t.c.registry

let builtin_sections t =
  [
    ("", fun () -> stats t);
    ("rp", fun () -> instruments t [ "rp_ht_"; "rcu_" ]);
    ("persist", fun () -> instruments t [ "persist_" ]);
    (* One flight recorder serves the process, so the section reads
       [Rp_trace] directly rather than the registry. *)
    ("trace", Rp_trace.stats_kv);
    ( "guard",
      (* The live ladder (state name, per-source pressures), then the
         [guard_*] instruments it does not already show. *)
      fun () ->
        plane "guard"
          (Option.map
             (fun g () ->
               let live = Rp_guard.stats_kv g in
               live @ instruments t [ "guard_" ] ~except:live)
             t.guard) );
    ( "heat",
      fun () ->
        plane "heat"
          (Option.map
             (fun h () -> Rp_heat.stats_kv h @ instruments t [ "heat_" ])
             t.c.heat)
    );
    ("tier", fun () -> plane "tier" None);
    ("cluster", fun () -> plane "cluster" None);
    ( "reset",
      fun () ->
        reset_stats t;
        [] );
  ]

let create ?(backend = Rp) ?(rcu_mode = Memb) ?(max_bytes = 64 * 1024 * 1024)
    ?(initial_size = 1024) ?(auto_resize = true) ?(stripes = 8)
    ?(heat_topk = 0) ?(heat_sample = 16) ?(clock = Unix.gettimeofday) () =
  let c = Store_core.create ~max_bytes ~clock ~heat_topk ~heat_sample in
  let b =
    match backend with
    | Lock -> Store_lock.create c ~initial_size
    | Rp -> Store_rp.create c ~rcu_mode ~initial_size ~auto_resize ~stripes
  in
  let t =
    {
      c;
      b;
      persist_hook = None;
      guard = None;
      read_only = false;
      promote_hook = None;
      sections = [];
    }
  in
  t.sections <- builtin_sections t;
  Rp_trace.register_instruments c.registry;
  (* Gauges read live store state; histograms and table/RCU counters come
     from the layers below via their observe hooks. *)
  let gauge name help f = Rp_obs.Registry.gauge c.registry ~help name f in
  gauge "curr_items" "live items" (fun () -> float_of_int (b.length ()));
  gauge "bytes" "chunk bytes charged in the slab accounting" (fun () ->
      float_of_int (Slab.allocated_bytes c.slab));
  gauge "bytes_requested" "payload bytes before slab rounding" (fun () ->
      float_of_int (Slab.requested_bytes c.slab));
  gauge "slab_fragmentation" "1 - requested/allocated" (fun () ->
      Slab.fragmentation c.slab);
  gauge "slab_classes_in_use" "slab classes with at least one chunk" (fun () ->
      float_of_int (List.length (Slab.stats c.slab)));
  gauge "slab_pages" "off-heap value pages allocated (1 MiB each)" (fun () ->
      float_of_int (Slab.pages c.slab));
  gauge "slab_limbo_bytes" "retired value chunks waiting for a grace period, bytes" (fun () ->
      float_of_int (Slab.limbo_bytes c.slab));
  gauge "hash_buckets" "current bucket count of the backing table" (fun () ->
      float_of_int (b.buckets ()));
  b.observe ();
  Option.iter (fun h -> Rp_heat.register h c.registry ~stripe_heat:b.stripe_heat) c.heat;
  t
