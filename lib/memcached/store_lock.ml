(* The global-lock backend: stock memcached's discipline and the paper's
   Figure 5 baseline. One mutex (the table's) serializes every operation,
   GETs included — lookup, exact-LRU bump, expiry check and the copy of
   the value out of its slab chunk all run inside it. So a chunk whose
   item leaves the table goes straight back to its class: no reader can
   be copying it. *)

open Store_core
module H = Rp_baseline.Lock_ht

(* An item and its exact-LRU node, both only touched under the lock. *)
type entry = { item : Item.t; node : string Lru.node }

let create (c : Store_core.t) ~initial_size =
  let table = H.create ~hash:hash_key ~equal:String.equal ~size:initial_size () in
  let lru = Lru.create () in
  let locked f = H.with_lock table f in
  let unlink key entry =
    ignore (H.unsafe_remove table key);
    Lru.remove lru entry.node;
    Slab.refund c.slab (Item.size_bytes ~key entry.item);
    Slab.free c.slab entry.item.chunk
  in
  let remove ~hash:_ key =
    match H.unsafe_find table key with
    | None -> false
    | Some entry ->
        unlink key entry;
        true
  in
  (* An expired item is reaped (and counted) as soon as a lookup meets it. *)
  let find_live ~now key =
    match H.unsafe_find table key with
    | Some entry when Item.is_expired entry.item ~now ->
        unlink key entry;
        Rp_obs.Counter.incr c.expired;
        None
    | found -> found
  in
  let store ~hash key (item : Item.t) =
    ignore (remove ~hash key);
    H.unsafe_insert table key { item; node = Lru.push_front lru key };
    ignore (Slab.charge c.slab (Item.size_bytes ~key item))
  in
  let rec evict () =
    if Slab.allocated_bytes c.slab > c.max_bytes then
      match Lru.pop_back lru with
      | None -> () (* nothing left to evict *)
      | Some victim ->
          (match H.unsafe_find table victim with
          | None -> ()
          | Some entry ->
              ignore (H.unsafe_remove table victim);
              Slab.refund c.slab (Item.size_bytes ~key:victim entry.item);
              Slab.free c.slab entry.item.chunk;
              Rp_obs.Counter.incr c.evicted);
          evict ()
  in
  (* The live item, LRU-bumped and counted (under the lock, which the
     caller holds until it has copied the value). *)
  let find_touched ~now key =
    match find_live ~now key with
    | None ->
        count_miss c key;
        None
    | Some entry ->
        Lru.touch lru entry.node;
        Item.touch_access entry.item ~now;
        count_hit c key entry.item.len;
        Some entry.item
  in
  {
    kind = Lock;
    rcu_mode = Memb;
    stripes = 1;
    hash = (fun _ -> 0);
    with_key = (fun ~hash:_ f -> locked f);
    with_all = locked;
    live = (fun ~hash:_ ~now key -> Option.map (fun e -> e.item) (find_live ~now key));
    store;
    set =
      (fun ~hash ~log buf off len item ->
        let key = Bytes.sub_string buf off len in
        locked (fun () ->
            store ~hash key item;
            Store_core.log_set c log ~op:Rp_persist.Record.Tset key item));
    remove;
    keys =
      (fun () ->
        let keys = ref [] in
        H.unsafe_iter table ~f:(fun k _ -> keys := k :: !keys);
        !keys);
    budget =
      (fun () -> if Slab.allocated_bytes c.slab > c.max_bytes then locked evict);
    evict_to_budget = (fun () -> locked evict);
    get =
      (fun ~now key ->
        locked (fun () -> Option.map (reply c ~with_cas:false key) (find_touched ~now key)));
    get_keys =
      (fun ~now keys ~first ~n hits ->
        Hits.prepare hits n;
        for j = 0 to n - 1 do
          locked (fun () ->
              match find_touched ~now (Protocol.Keys.key keys (first + j)) with
              | Some item -> copy_hit c hits j item
              | None -> ())
        done);
    prefetch = ignore;
    iter =
      (fun f ->
        locked (fun () -> H.unsafe_iter table ~f:(fun k e -> f k e.item (value c e.item)));
        0);
    length = (fun () -> H.length table);
    buckets = (fun () -> H.size table);
    reader_offline = ignore;
    observe = ignore;
    stripe_heat = (fun () -> [||]);
    validate = (fun () -> Ok ());
  }
