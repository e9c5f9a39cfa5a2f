(* The links are the nodes themselves ([Nil] ends a list), so linking,
   unlinking and moving a node to the front store nodes and allocate
   nothing: an LRU bump on a GET or an overwrite leaves no garbage, and
   nothing for the GC to promote. *)
type 'k node =
  | Nil
  | Node of {
      key : 'k;
      mutable prev : 'k node;
      mutable next : 'k node;
      mutable linked : bool;
    }

type 'k t = { mutable front : 'k node; mutable back : 'k node; mutable length : int }

let create () = { front = Nil; back = Nil; length = 0 }

let set_prev node p = match node with Node n -> n.prev <- p | Nil -> ()
let set_next node x = match node with Node n -> n.next <- x | Nil -> ()

(* Link an unlinked node at the front. *)
let link_front t = function
  | Nil -> ()
  | Node n as node ->
      n.prev <- Nil;
      n.next <- t.front;
      n.linked <- true;
      (match t.front with Nil -> t.back <- node | old -> set_prev old node);
      t.front <- node;
      t.length <- t.length + 1

let push_front t key =
  let node = Node { key; prev = Nil; next = Nil; linked = false } in
  link_front t node;
  node

let remove t = function
  | Node n when n.linked ->
      (match n.prev with Nil -> t.front <- n.next | p -> set_next p n.next);
      (match n.next with Nil -> t.back <- n.prev | x -> set_prev x n.prev);
      n.prev <- Nil;
      n.next <- Nil;
      n.linked <- false;
      t.length <- t.length - 1
  | Node _ | Nil -> ()

(* Relink the same node at the front so existing handles stay valid. *)
let touch t node =
  match node with
  | Node n when n.linked ->
      remove t node;
      link_front t node
  | Node _ | Nil -> ()

let key = function Node n -> n.key | Nil -> invalid_arg "Lru.key"

let pop_back t =
  match t.back with
  | Nil -> None
  | node ->
      remove t node;
      Some (key node)

let peek_back t = match t.back with Nil -> None | node -> Some (key node)
let length t = t.length

let to_list t =
  let rec walk acc = function Nil -> List.rev acc | Node n -> walk (n.key :: acc) n.next in
  walk [] t.front
