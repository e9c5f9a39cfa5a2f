type ('k, 'v) link =
  | Null
  | Node of {
      key : 'k;
      hash : int;
      mutable value : 'v;
      mutable next : ('k, 'v) link;
      mutable reclaimed : bool;
    }

type ('k, 'v) node = ('k, 'v) link

let make_node ?(hash = 0) ~key ~value ~next () =
  Node { key; hash; value; next; reclaimed = false }

let null_arg fn = invalid_arg ("Rp_list." ^ fn ^ ": Null")
let key = function Node n -> n.key | Null -> null_arg "key"
let hash = function Node n -> n.hash | Null -> null_arg "hash"
let value = function Node n -> n.value | Null -> null_arg "value"
let next = function Node n -> n.next | Null -> null_arg "next"

(* Writer-side stores. A pointer field store is [caml_modify], a release
   store in OCaml 5: everything written before it (the fields of a fresh
   node included) is visible to a reader that loads the new pointer. *)
let set_next l v = match l with Node n -> n.next <- v | Null -> null_arg "set_next"
let mark_reclaimed = function Node n -> n.reclaimed <- true | Null -> ()

external prefetch : 'a -> (int[@untagged]) -> unit
  = "rp_list_prefetch_byte" "rp_list_prefetch"
  [@@noalloc]

let rec iter_links ~f = function
  | Null -> ()
  | Node n as l ->
      f l;
      iter_links ~f n.next

let length_link link =
  let rec go acc = function Null -> acc | Node n -> go (acc + 1) n.next in
  go 0 link

type ('k, 'v) t = {
  rcu : Rcu.t;
  equal : 'k -> 'k -> bool;
  head : ('k, 'v) link Atomic.t;
  writer : Mutex.t;
}

let create ~rcu ~equal () =
  { rcu; equal; head = Atomic.make Null; writer = Mutex.create () }

let rcu t = t.rcu

let rec find_key equal k = function
  | Null -> Null
  | Node n as l -> if equal n.key k then l else find_key equal k n.next

let find t k =
  Rcu.with_read_current t.rcu (fun () ->
      match find_key t.equal k (Rcu.dereference t.head) with
      | Node n -> Some n.value
      | Null -> None)

let mem t k = Option.is_some (find t k)

let insert t k v =
  Mutex.lock t.writer;
  let node = make_node ~key:k ~value:v ~next:(Atomic.get t.head) () in
  (* Publication: the node is fully initialised before it becomes
     reachable. *)
  Rcu.publish t.head node;
  Mutex.unlock t.writer

let replace t k v =
  Mutex.lock t.writer;
  let found =
    match find_key t.equal k (Atomic.get t.head) with
    | Node n ->
        n.value <- v;
        true
    | Null ->
        let node = make_node ~key:k ~value:v ~next:(Atomic.get t.head) () in
        Rcu.publish t.head node;
        false
  in
  Mutex.unlock t.writer;
  found

(* Unlink the first node matching the key; return it for reclamation
   ([Null] when absent). The writer mutex must be held. *)
let unlink_first t k =
  let rec loop prev = function
    | Null -> Null
    | Node n as cur ->
        if t.equal n.key k then begin
          (match prev with
          | Null -> Rcu.publish t.head n.next
          | Node p -> p.next <- n.next);
          cur
        end
        else loop cur n.next
  in
  loop Null (Atomic.get t.head)

let remove t k =
  Mutex.lock t.writer;
  let unlinked = unlink_first t k in
  Mutex.unlock t.writer;
  match unlinked with
  | Null -> false
  | Node _ ->
      (* Pre-existing readers may still hold a reference to the node; only
         after a grace period may it be treated as reclaimed. *)
      Rcu.synchronize t.rcu;
      mark_reclaimed unlinked;
      true

let remove_async t k =
  Mutex.lock t.writer;
  let unlinked = unlink_first t k in
  Mutex.unlock t.writer;
  match unlinked with
  | Null -> false
  | Node _ ->
      Rcu.call_rcu t.rcu (fun () -> mark_reclaimed unlinked);
      true

let length t =
  Rcu.with_read_current t.rcu (fun () -> length_link (Rcu.dereference t.head))

let rec fold_chain f acc = function
  | Null -> acc
  | Node n -> fold_chain f (f acc n.key n.value) n.next

let to_list t =
  Rcu.with_read_current t.rcu (fun () ->
      List.rev
        (fold_chain (fun acc k v -> (k, v) :: acc) [] (Rcu.dereference t.head)))

let iter t ~f =
  Rcu.with_read_current t.rcu (fun () ->
      fold_chain (fun () k v -> f k v) () (Rcu.dereference t.head))

let head t = t.head

let validate_no_reclaimed t =
  Rcu.with_read_current t.rcu (fun () ->
      let rec go = function
        | Null -> true
        | Node n -> (not n.reclaimed) && go n.next
      in
      go (Rcu.dereference t.head))
