type cls = {
  chunk_size : int;
  used_chunks : int Atomic.t;
  used_bytes : int Atomic.t;
}

type t = {
  classes : cls array;
  allocated : int Atomic.t;
  requested : int Atomic.t;
}

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
  {
    classes =
      Array.of_list
        (List.map
           (fun chunk_size ->
             {
               chunk_size;
               used_chunks = Atomic.make 0;
               used_bytes = Atomic.make 0;
             })
           sizes);
    allocated = Atomic.make 0;
    requested = Atomic.make 0;
  }

let class_count t = Array.length t.classes
let chunk_sizes t = Array.map (fun c -> c.chunk_size) t.classes
let chunk_size_of t i = t.classes.(i).chunk_size

(* Binary search for the smallest class with chunk_size >= size. *)
let class_of_size t size =
  let n = Array.length t.classes in
  if size > t.classes.(n - 1).chunk_size then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.classes.(mid).chunk_size < size then lo := mid + 1 else hi := mid
    done;
    Some !lo
  end

(* The largest class's chunk holds [size] bytes. *)
let fits t size = size <= t.classes.(Array.length t.classes - 1).chunk_size

let charge t size =
  match class_of_size t size with
  | None -> None
  | Some i ->
      let c = t.classes.(i) in
      ignore (Atomic.fetch_and_add c.used_chunks 1);
      ignore (Atomic.fetch_and_add c.used_bytes size);
      ignore (Atomic.fetch_and_add t.allocated c.chunk_size);
      ignore (Atomic.fetch_and_add t.requested size);
      Some c.chunk_size

let refund t size =
  match class_of_size t size with
  | None -> ()
  | Some i ->
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
