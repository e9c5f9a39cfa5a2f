(* A page is malloc'd memory, named by its address with the low bit set,
   so OCaml holds it as an immediate: the GC never scans it, never counts
   it, and is never sped up by it. [create] attaches a finaliser that
   frees a slab's pages once the slab is unreachable. *)
type page = int

external blit_page_to_bytes : page -> int -> Bytes.t -> int -> int -> unit
  = "slab_blit_to_bytes"
[@@noalloc]

external page_create : int -> page = "slab_page_create"
external page_free : page -> unit = "slab_page_free" [@@noalloc]
external prefetch_page : page -> int -> int -> write:bool -> unit = "slab_prefetch" [@@noalloc]

type cls = {
  chunk_size : int;
  used_chunks : int Atomic.t;
  used_bytes : int Atomic.t;
  (* Value memory: free chunks (a stack of chunk ids, made room for a
     page's worth of chunks when the class gets its first page and
     doubled when a free finds it full) and the page being carved,
     under [mu]. *)
  mu : Mutex.t;
  mutable free : int array;
  mutable nfree : int;
  mutable carve : int;  (* next chunk id to carve; [carve_end] when the page is used up *)
  mutable carve_end : int;
  per_page : int;
  mag_size : int;  (* chunks a magazine takes per refill *)
}

(* The page directory: a page's memory and the class it is carved for.
   It only grows; a grown copy is published whole, so a reader holding a
   chunk id finds its page in whichever copy it loads. *)
type dir = { pages : page array; owner : int array }

(* A limbo batch: chunks retired together, handed to [call_rcu] as one
   callback, [release], made once with the batch. A released batch goes
   back to its slab's pool and is filled again, so retiring allocates
   nothing once the pool holds enough batches. *)
type batch = {
  chunks : int array;  (* [limbo_chunks] slots *)
  mutable n : int;
  mutable bytes : int;
  mutable release : unit -> unit;
}

(* A domain's own chunks: one magazine per class to allocate from, and
   the limbo batch of chunks retired since its last hand-off ([no_batch]
   until it retires one). [busy] guards against a sibling systhread of
   the same domain. *)
type local = {
  mutable busy : bool;
  mags : int array array;
  counts : int array;
  mutable limbo : batch;
}

type t = {
  classes : cls array;
  allocated : int Atomic.t;
  requested : int Atomic.t;
  page_bits : int;
  dir : dir Atomic.t;
  mutable npages : int;  (* under [grow_mu] *)
  grow_mu : Mutex.t;
  local : local Domain.DLS.key;
  limbo_pending : int Atomic.t;  (* bytes handed to [call_rcu], not yet released *)
  (* Released limbo batches, under [pool_mu] (a leaf). *)
  pool_mu : Mutex.t;
  mutable pool : batch array;
  mutable npool : int;
}

let no_chunk = -1

(* A magazine refill takes at most this many bytes of one class. *)
let mag_bytes = 64 * 1024

(* A limbo batch is handed to [call_rcu] at this many chunks or bytes. *)
let limbo_chunks = 64
let limbo_batch_bytes = 256 * 1024

(* Past this many bytes waiting for a grace period, the retiring writer
   waits one out itself. *)
let limbo_cap = 16 * 1024 * 1024

let no_batch = { chunks = [||]; n = 0; bytes = 0; release = ignore }

let free_pages t =
  let d = Atomic.get t.dir in
  for p = 0 to t.npages - 1 do
    page_free d.pages.(p)
  done

let create ?(base_chunk = 96) ?(growth_factor = 1.25) ?(max_chunk = 1 lsl 20) () =
  if base_chunk <= 0 then invalid_arg "Slab.create: base_chunk <= 0";
  if growth_factor <= 1.0 then invalid_arg "Slab.create: growth_factor <= 1";
  if max_chunk < base_chunk then invalid_arg "Slab.create: max_chunk < base_chunk";
  let rec ladder acc size =
    if size >= max_chunk then List.rev (max_chunk :: acc)
    else begin
      (* memcached aligns chunk sizes to 8 bytes. *)
      let next =
        let raw = int_of_float (ceil (float_of_int size *. growth_factor)) in
        (raw + 7) land lnot 7
      in
      let next = if next <= size then size + 8 else next in
      ladder (size :: acc) next
    end
  in
  let sizes = ladder [] base_chunk in
  (* Pages are 1 MiB, or the largest chunk rounded up to a power of two. *)
  let rec bits b = if 1 lsl b >= max_chunk then b else bits (b + 1) in
  let page_bits = bits 20 in
  let nclasses = List.length sizes in
  let t =
    {
      classes =
        Array.of_list
          (List.map
             (fun chunk_size ->
               {
                 chunk_size;
                 used_chunks = Atomic.make 0;
                 used_bytes = Atomic.make 0;
                 mu = Mutex.create ();
                 free = [||];
                 nfree = 0;
                 carve = 0;
                 carve_end = 0;
                 per_page = (1 lsl page_bits) / chunk_size;
                 mag_size = max 1 (min 32 (mag_bytes / chunk_size));
               })
             sizes);
      allocated = Atomic.make 0;
      requested = Atomic.make 0;
      page_bits;
      dir = Atomic.make { pages = [||]; owner = [||] };
      npages = 0;
      grow_mu = Mutex.create ();
      local =
        Domain.DLS.new_key (fun () ->
            {
              busy = false;
              mags = Array.make nclasses [||];
              counts = Array.make nclasses 0;
              limbo = no_batch;
            });
      limbo_pending = Atomic.make 0;
      pool_mu = Mutex.create ();
      pool = [||];
      npool = 0;
    }
  in
  Gc.finalise free_pages t;
  t

let class_count t = Array.length t.classes
let chunk_sizes t = Array.map (fun c -> c.chunk_size) t.classes
let chunk_size_of t i = t.classes.(i).chunk_size

(* Binary search for the smallest class with chunk_size >= size; -1 when
   even the largest is too small. *)
let class_index t size =
  let n = Array.length t.classes in
  if size > t.classes.(n - 1).chunk_size then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.classes.(mid).chunk_size < size then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let class_of_size t size =
  match class_index t size with -1 -> None | i -> Some i

(* The largest class's chunk holds [size] bytes. *)
let fits t size = size <= t.classes.(Array.length t.classes - 1).chunk_size

let charge t size =
  match class_index t size with
  | -1 -> None
  | i ->
      let c = t.classes.(i) in
      ignore (Atomic.fetch_and_add c.used_chunks 1);
      ignore (Atomic.fetch_and_add c.used_bytes size);
      ignore (Atomic.fetch_and_add t.allocated c.chunk_size);
      ignore (Atomic.fetch_and_add t.requested size);
      Some c.chunk_size

let refund t size =
  match class_index t size with
  | -1 -> ()
  | i ->
      let c = t.classes.(i) in
      ignore (Atomic.fetch_and_add c.used_chunks (-1));
      ignore (Atomic.fetch_and_add c.used_bytes (-size));
      ignore (Atomic.fetch_and_add t.allocated (-c.chunk_size));
      ignore (Atomic.fetch_and_add t.requested (-size))

let allocated_bytes t = Atomic.get t.allocated
let requested_bytes t = Atomic.get t.requested

let fragmentation t =
  let requested = requested_bytes t in
  if requested = 0 then 0.0
  else (float_of_int (allocated_bytes t) /. float_of_int requested) -. 1.0

type class_stats = { chunk_size : int; used_chunks : int; used_bytes : int }

let stats t =
  Array.to_list t.classes
  |> List.filter_map (fun (c : cls) ->
         let used = Atomic.get c.used_chunks in
         if used = 0 then None
         else
           Some
             {
               chunk_size = c.chunk_size;
               used_chunks = used;
               used_bytes = Atomic.get c.used_bytes;
             })

(* --- value memory --- *)

let pages t = t.npages
let page_of t chunk = Array.unsafe_get (Atomic.get t.dir).pages (chunk lsr t.page_bits)
let offset_of t chunk = chunk land ((1 lsl t.page_bits) - 1)
let class_of_chunk t chunk = (Atomic.get t.dir).owner.(chunk lsr t.page_bits)

(* A page's raw word is its address with the low bit set, so the OCaml
   int it reads as is half the address; adding half an even offset
   gives the int whose raw word is the chunk's address, low bit set. *)
let address t chunk = page_of t chunk + (offset_of t chunk lsr 1)

(* A fresh page for class [c], its index returned ([c]'s mutex held;
   [grow_mu] is a leaf below it). *)
let new_page t c =
  Mutex.lock t.grow_mu;
  let p = t.npages in
  let d = Atomic.get t.dir in
  let d =
    if p < Array.length d.pages then d
    else begin
      let n = max 8 (2 * p) in
      let grown =
        {
          pages = Array.init n (fun i -> if i < p then d.pages.(i) else 0);
          owner = Array.init n (fun i -> if i < p then d.owner.(i) else -1);
        }
      in
      Atomic.set t.dir grown;
      grown
    end
  in
  (match page_create (1 lsl t.page_bits) with
  | page ->
      d.pages.(p) <- page;
      d.owner.(p) <- c;
      t.npages <- p + 1;
      Mutex.unlock t.grow_mu
  | exception e ->
      Mutex.unlock t.grow_mu;
      raise e);
  p

(* One chunk of class [c]: the most recently freed, else the next one
   carved ([c]'s mutex held). *)
let take t c (cls : cls) =
  if cls.nfree > 0 then begin
    cls.nfree <- cls.nfree - 1;
    Array.unsafe_get cls.free cls.nfree
  end
  else begin
    if cls.carve >= cls.carve_end then begin
      let p = new_page t c in
      if Array.length cls.free = 0 then cls.free <- Array.make cls.per_page no_chunk;
      cls.carve <- p lsl t.page_bits;
      cls.carve_end <- cls.carve + (cls.per_page * cls.chunk_size)
    end;
    let chunk = cls.carve in
    cls.carve <- chunk + cls.chunk_size;
    chunk
  end

let with_class (cls : cls) f =
  Mutex.lock cls.mu;
  match f () with
  | v ->
      Mutex.unlock cls.mu;
      v
  | exception e ->
      Mutex.unlock cls.mu;
      raise e

(* A freed chunk comes back cold: the next one a magazine hands out is
   asked for ahead of its write, so the value's copy into it does not
   wait on its lines (the next SET of the class usually follows within
   the same pipelined run). *)
let warm_next t mag n (cls : cls) =
  if n > 0 then begin
    let chunk = Array.unsafe_get mag (n - 1) in
    prefetch_page (page_of t chunk) (offset_of t chunk) (Int.min cls.chunk_size 512) ~write:true
  end

(* Fill the domain's empty magazine of class [c], then take from it. *)
let refill t l c =
  let cls = t.classes.(c) in
  if Array.length l.mags.(c) = 0 then l.mags.(c) <- Array.make cls.mag_size no_chunk;
  let mag = l.mags.(c) in
  (* The class's mutex held with no closure: a refill allocates nothing. *)
  Mutex.lock cls.mu;
  (match
     for i = 0 to cls.mag_size - 1 do
       mag.(i) <- take t c cls;
       l.counts.(c) <- i + 1
     done
   with
  | () -> Mutex.unlock cls.mu
  | exception e ->
      Mutex.unlock cls.mu;
      raise e);
  let n = l.counts.(c) - 1 in
  l.counts.(c) <- n;
  warm_next t mag n cls;
  mag.(n)

let alloc t len =
  if len = 0 then no_chunk
  else
    match class_index t len with
    | -1 -> invalid_arg "Slab.alloc: larger than the largest chunk"
    | c ->
        let l = Domain.DLS.get t.local in
        if l.busy then
          let cls = t.classes.(c) in
          with_class cls (fun () -> take t c cls)
        else begin
          l.busy <- true;
          let n = Array.unsafe_get l.counts c in
          if n > 0 then begin
            let mag = Array.unsafe_get l.mags c in
            Array.unsafe_set l.counts c (n - 1);
            l.busy <- false;
            warm_next t mag (n - 1) (Array.unsafe_get t.classes c);
            Array.unsafe_get mag (n - 1)
          end
          else
            match refill t l c with
            | chunk ->
                l.busy <- false;
                chunk
            | exception e ->
                l.busy <- false;
                raise e
        end

(* Push a chunk on its class's free list ([cls]'s mutex held). *)
let push (cls : cls) chunk =
  if cls.nfree = Array.length cls.free then begin
    let grown = Array.make (2 * cls.nfree) no_chunk in
    Array.blit cls.free 0 grown 0 cls.nfree;
    cls.free <- grown
  end;
  Array.unsafe_set cls.free cls.nfree chunk;
  cls.nfree <- cls.nfree + 1

let free_chunk t chunk =
  let cls = t.classes.(class_of_chunk t chunk) in
  Mutex.lock cls.mu;
  push cls chunk;
  Mutex.unlock cls.mu

(* The first [n] chunks of a limbo batch back on their free lists, each
   run of chunks of one class (usually the whole batch) under one hold
   of the class's mutex. *)
let free_batch t chunks n =
  let i = ref 0 in
  while !i < n do
    let c = class_of_chunk t chunks.(!i) in
    let cls = t.classes.(c) in
    Mutex.lock cls.mu;
    while !i < n && class_of_chunk t chunks.(!i) = c do
      push cls chunks.(!i);
      incr i
    done;
    Mutex.unlock cls.mu
  done

let free t chunk = if chunk <> no_chunk then free_chunk t chunk

let give_batch t b =
  Mutex.lock t.pool_mu;
  if t.npool = Array.length t.pool then begin
    let grown = Array.make (max 4 (2 * t.npool)) no_batch in
    Array.blit t.pool 0 grown 0 t.npool;
    t.pool <- grown
  end;
  t.pool.(t.npool) <- b;
  t.npool <- t.npool + 1;
  Mutex.unlock t.pool_mu

(* An empty batch: a released one, or a new one whose [release] returns
   its chunks to their classes and itself to the pool. *)
let take_batch t =
  Mutex.lock t.pool_mu;
  let n = t.npool in
  if n > 0 then begin
    let b = t.pool.(n - 1) in
    t.pool.(n - 1) <- no_batch;
    t.npool <- n - 1;
    Mutex.unlock t.pool_mu;
    b
  end
  else begin
    Mutex.unlock t.pool_mu;
    let b = { chunks = Array.make limbo_chunks no_chunk; n = 0; bytes = 0; release = ignore } in
    b.release <-
      (fun () ->
        free_batch t b.chunks b.n;
        ignore (Atomic.fetch_and_add t.limbo_pending (-b.bytes));
        b.n <- 0;
        b.bytes <- 0;
        give_batch t b);
    b
  end

(* A closed limbo batch: back to the free lists one grace period after
   this call, or at once when too much is already waiting. *)
let defer t rcu b =
  let pending = Atomic.fetch_and_add t.limbo_pending b.bytes + b.bytes in
  Rcu.call_rcu rcu b.release;
  if pending > limbo_cap then Rcu.barrier rcu

let add_chunk b chunk size =
  b.chunks.(b.n) <- chunk;
  b.n <- b.n + 1;
  b.bytes <- b.bytes + size

let retire t rcu chunk =
  if chunk <> no_chunk then begin
    let size = t.classes.(class_of_chunk t chunk).chunk_size in
    let l = Domain.DLS.get t.local in
    if l.busy then begin
      let b = take_batch t in
      add_chunk b chunk size;
      defer t rcu b
    end
    else begin
      l.busy <- true;
      if l.limbo == no_batch then begin
        match take_batch t with
        | b -> l.limbo <- b
        | exception e ->
            l.busy <- false;
            raise e
      end;
      let b = l.limbo in
      add_chunk b chunk size;
      if b.n = limbo_chunks || b.bytes >= limbo_batch_bytes then begin
        l.limbo <- no_batch;
        l.busy <- false;
        defer t rcu b
      end
      else l.busy <- false
    end
  end

let limbo_bytes t = Atomic.get t.limbo_pending

let check_bytes name b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg name

let blit t chunk at dst off len =
  check_bytes "Slab.blit" dst off len;
  if len > 0 then blit_page_to_bytes (page_of t chunk) (offset_of t chunk + at) dst off len

let chunk_bytes t chunk = t.classes.(class_of_chunk t chunk).chunk_size

(* The chunk's class bounds what is asked for, so the hints stop at its
   end whatever [len] its caller guessed. *)
let prefetch t chunk len =
  if chunk <> no_chunk && len > 0 then
    prefetch_page (page_of t chunk) (offset_of t chunk) (Int.min len (chunk_bytes t chunk))
      ~write:false
