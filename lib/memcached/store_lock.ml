(* The global-lock backend: stock memcached's discipline and the paper's
   Figure 5 baseline. One mutex (the table's) serializes every operation,
   GETs included — lookup, exact-LRU bump, expiry check and the copy of
   the item out of its slab chunk all run inside it. So a chunk whose
   item leaves the table goes straight back to its class: no reader can
   be reading it. *)

open Store_core
module H = Rp_baseline.Lock_ht

(* An item and its exact-LRU node, both only touched under the lock. An
   overwrite swaps the item in place and moves the node to the front, so
   it allocates nothing that stays. *)
type entry = { mutable item : Item.t; node : string Lru.node }

let create (c : Store_core.t) ~initial_size =
  let slab = c.slab in
  let table = H.create ~hash:hash_key ~equal:String.equal ~size:initial_size () in
  let lru = Lru.create () in
  let locked f = H.with_lock table f in
  let release key item =
    Slab.refund slab (Item.footprint slab ~key_len:(String.length key) item);
    Item.free slab item
  in
  let unlink key entry =
    ignore (H.unsafe_remove table key);
    Lru.remove lru entry.node;
    release key entry.item
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
    | Some entry when Item.is_expired slab entry.item ~now ->
        unlink key entry;
        Rp_obs.Counter.incr c.expired;
        None
    | found -> found
  in
  let store ~hash:_ key item =
    ignore (Slab.charge slab (Item.footprint slab ~key_len:(String.length key) item));
    match H.unsafe_find table key with
    | Some entry ->
        release key entry.item;
        entry.item <- item;
        Lru.touch lru entry.node
    | None -> H.unsafe_insert table key { item; node = Lru.push_front lru key }
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
              release victim entry.item;
              Rp_obs.Counter.incr c.evicted);
          evict ()
  in
  (* The live item, LRU-bumped (under the lock, which the caller holds
     until it has copied the value). *)
  let find_touched ~now key =
    match find_live ~now key with
    | None -> None
    | Some entry ->
        Lru.touch lru entry.node;
        Item.touch_access slab entry.item ~now;
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
    get_keys =
      (fun ~now keys ~first ~n hits ->
        Hits.prepare hits n;
        for j = 0 to n - 1 do
          let key = Protocol.Keys.key keys (first + j) in
          locked (fun () ->
              match find_touched ~now key with
              | Some item -> count_hit c key (Hits.serve hits slab j item ~now)
              | None -> count_miss c key)
        done);
    prefetch = ignore;
    iter =
      (fun f ->
        locked (fun () ->
            H.unsafe_iter table ~f:(fun k e ->
                f k ~flags:(Item.flags slab e.item) ~exptime:(Item.exptime slab e.item)
                  ~cas:(Item.cas slab e.item) (Item.value slab e.item)));
        0);
    length = (fun () -> H.length table);
    buckets = (fun () -> H.size table);
    reader_offline = ignore;
    observe = ignore;
    stripe_heat = (fun () -> [||]);
    validate = (fun () -> Ok ());
  }
