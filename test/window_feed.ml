(* Reading a request stream into a parser's input window the way
   [Conn.fill] reads a socket, for the split-read properties of the text
   and binary parsers. *)

open Memcached

type moves = { mutable slides : int; mutable grows : int }

(* Chunk ends for [len] stream bytes: random chunks of 1 to [max_chunk]
   bytes, plus a cut at every offset of [forced]. *)
let cuts rng ~max_chunk ~forced len =
  let rec go off acc =
    if off >= len then List.rev (len :: acc)
    else
      let next = off + 1 + Random.State.int rng max_chunk in
      let acc = if next < len then next :: acc else acc in
      go next acc
  in
  List.sort_uniq compare (List.filter (fun c -> c > 0 && c < len) forced @ go 0 [])

(* Copy [stream] into [w] chunk by chunk, ending each chunk at the next of
   [cuts]: reserve the chunk plus [extra] more bytes (a read asks for
   more than arrives), copy the chunk in, commit it, then pull every
   complete request with [pull]. Returns the requests in order and how
   many reserves slid or grew the window under unread bytes. *)
let feed (w : Protocol.Inbuf.t) ~cuts ~extra stream pull =
  let moves = { slides = 0; grows = 0 } and out = ref [] in
  let rec drain () =
    match pull () with
    | Some r ->
        out := r :: !out;
        drain ()
    | None -> ()
  in
  let rec go off = function
    | [] -> ()
    | cut :: rest ->
        let n = cut - off in
        let unread = Protocol.Inbuf.available w
        and cap = Protocol.Inbuf.capacity w
        and pos = w.pos in
        Protocol.Inbuf.reserve w (n + extra off);
        if unread > 0 then
          if Protocol.Inbuf.capacity w > cap then moves.grows <- moves.grows + 1
          else if w.pos < pos then moves.slides <- moves.slides + 1;
        Bytes.blit_string stream off w.data w.len n;
        Protocol.Inbuf.commit w n;
        drain ();
        go cut rest
  in
  go 0 cuts;
  (List.rev !out, moves)

(* The read size beyond a chunk, varied with the chunk's offset. *)
let extra off = off * 7919 mod 97
