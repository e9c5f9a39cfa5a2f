module Frame = Rp_persist.Frame
module Fsutil = Rp_persist.Fsutil
module Crc32 = Rp_persist.Crc32

type location = { segment : int; offset : int; len : int }
type read_error = Gone | Torn

module type TIER = sig
  type t

  val append :
    t -> key:string -> data:string -> (location, [ `Full | `Failed of string ]) result

  val read : t -> location -> (string * string, read_error) result
  val mark_dead : t -> location -> unit
  val total_bytes : t -> int
  val live_bytes : t -> int
  val segment_count : t -> int
  val close : t -> unit
end

let append_site = "tier.segment.append"
let read_torn_site = "tier.read.torn"

module Cold_store = struct
  let prefix = "tier-"
  let suffix = ".seg"
  let filename ~gen = Printf.sprintf "%s%010d%s" prefix gen suffix

  type segment = {
    gen : int;
    path : string;
    mutable bytes : int;  (* file bytes, torn tails included *)
    mutable live : int;  (* bytes of frames still referenced *)
    mutable sealed : bool;
    (* A segment inherited from a previous run has an unknown live map
       until [finish_recovery] walks it; it must not be auto-dropped on
       the strength of its provisional zero. *)
    mutable recovered : bool;
    mutable fd : Unix.file_descr option;  (* Some only for the head *)
  }

  type t = {
    tdir : string;
    max_bytes : int;
    segment_bytes : int;
    mu : Mutex.t;  (* leaf: guards the segment index and head appends *)
    segs : (int, segment) Hashtbl.t;
    mutable head : segment;
    mutable total : int;  (* sum of seg.bytes *)
    mutable closed : bool;
  }

  let dir t = t.tdir

  (* --- record encoding: frame payload = [u32 klen][key][data] --- *)

  let encode_payload ~key ~data =
    let klen = String.length key in
    let b = Bytes.create (4 + klen + String.length data) in
    Bytes.set_int32_be b 0 (Int32.of_int klen);
    Bytes.blit_string key 0 b 4 klen;
    Bytes.blit_string data 0 b (4 + klen) (String.length data);
    Bytes.unsafe_to_string b

  let decode_payload payload =
    let plen = String.length payload in
    if plen < 4 then None
    else
      let klen = Int32.to_int (String.get_int32_be payload 0) in
      if klen < 0 || 4 + klen > plen then None
      else
        Some (String.sub payload 4 klen, String.sub payload (4 + klen) (plen - 4 - klen))

  (* --- segment lifecycle (t.mu held) --- *)

  let open_head t ~gen =
    let path = Filename.concat t.tdir (filename ~gen) in
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    let seg =
      { gen; path; bytes = 0; live = 0; sealed = false; recovered = true; fd = Some fd }
    in
    Hashtbl.replace t.segs gen seg;
    seg

  let drop_locked t seg =
    (try Sys.remove seg.path with Sys_error _ -> ());
    Hashtbl.remove t.segs seg.gen;
    t.total <- t.total - seg.bytes

  let maybe_drop_locked t seg =
    if seg.sealed && seg.recovered && seg.live = 0 then drop_locked t seg

  let seal_head_locked t =
    let head = t.head in
    (match head.fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    head.fd <- None;
    head.sealed <- true;
    maybe_drop_locked t head;
    t.head <- open_head t ~gen:(head.gen + 1)

  let open_ ?segment_bytes ~dir ~max_bytes () =
    match
      Fsutil.mkdir_p dir;
      Fsutil.scan_gen_files ~dir ~prefix ~suffix
    with
    | exception e -> Error (Printexc.to_string e)
    | existing ->
        let segment_bytes =
          match segment_bytes with
          | Some s when s > 0 -> s
          | _ -> max 65536 (max_bytes / 8)
        in
        let t =
          {
            tdir = dir;
            max_bytes;
            segment_bytes;
            mu = Mutex.create ();
            segs = Hashtbl.create 16;
            head =
              (* placeholder, replaced just below once the max existing
                 generation is known *)
              {
                gen = 0;
                path = "";
                bytes = 0;
                live = 0;
                sealed = true;
                recovered = true;
                fd = None;
              };
            total = 0;
            closed = false;
          }
        in
        let max_gen =
          List.fold_left
            (fun acc (gen, path) ->
              let bytes =
                try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
              in
              Hashtbl.replace t.segs gen
                {
                  gen;
                  path;
                  bytes;
                  live = 0;
                  sealed = true;
                  recovered = false;
                  fd = None;
                };
              t.total <- t.total + bytes;
              max acc gen)
            0 existing
        in
        (match open_head t ~gen:(max_gen + 1) with
        | seg -> t.head <- seg
        | exception e -> raise e);
        Ok t

  let with_mu t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  (* --- append (demotion path; called under the victim's write stripe,
     t.mu is a leaf below every store lock) --- *)

  let append t ~key ~data =
    with_mu t (fun () ->
        if t.closed then Error (`Failed "tier closed")
        else
          let payload = encode_payload ~key ~data in
          if String.length payload > Frame.max_payload then Error (`Failed "oversize")
          else begin
            let buf = Buffer.create (String.length payload + Frame.header_bytes) in
            Frame.add buf payload;
            let frame = Buffer.contents buf in
            let flen = String.length frame in
            if t.total + flen > t.max_bytes then Error `Full
            else begin
              if t.head.bytes > 0 && t.head.bytes + flen > t.segment_bytes then
                seal_head_locked t;
              let head = t.head in
              let fd = Option.get head.fd in
              match Fsutil.write_all ~fault:append_site fd frame with
              | () ->
                  let offset = head.bytes in
                  head.bytes <- head.bytes + flen;
                  head.live <- head.live + flen;
                  t.total <- t.total + flen;
                  Ok { segment = head.gen; offset; len = flen }
              | exception e ->
                  (* The write may have landed partially: re-stat for the
                     true size, count the torn bytes as dead, and retire
                     this head so the next append starts on clean bytes. *)
                  let sz =
                    try (Unix.fstat fd).Unix.st_size
                    with Unix.Unix_error _ -> head.bytes
                  in
                  t.total <- t.total + (sz - head.bytes);
                  head.bytes <- sz;
                  seal_head_locked t;
                  Error (`Failed (Printexc.to_string e))
            end
          end)

  (* --- positioned read (no lock held across the I/O) --- *)

  let really_read fd buf =
    let len = Bytes.length buf in
    let rec go off =
      if off >= len then off
      else
        match Unix.read fd buf off (len - off) with
        | 0 -> off
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0

  let decode_frame ~loc buf got =
    if got < loc.len || loc.len < Frame.header_bytes then Error Torn
    else
      let payload_len = Int32.to_int (Bytes.get_int32_be buf 0) in
      let crc = Int32.to_int (Bytes.get_int32_be buf 4) land 0xFFFFFFFF in
      if payload_len <> loc.len - Frame.header_bytes then Error Torn
      else
        let payload = Bytes.sub_string buf Frame.header_bytes payload_len in
        if Crc32.string payload <> crc then Error Torn
        else
          match decode_payload payload with
          | Some (key, data) -> Ok (key, data)
          | None -> Error Torn

  let read t loc =
    let path =
      with_mu t (fun () ->
          match Hashtbl.find_opt t.segs loc.segment with
          | Some seg -> Some seg.path
          | None -> None)
    in
    match path with
    | None -> Error Gone
    | Some path -> (
        match Unix.openfile path [ Unix.O_RDONLY ] 0 with
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Error Gone
        | exception Unix.Unix_error _ -> Error Torn
        | fd ->
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                match
                  Rp_fault.point read_torn_site;
                  ignore (Unix.lseek fd loc.offset Unix.SEEK_SET);
                  let buf = Bytes.create loc.len in
                  let got = really_read fd buf in
                  decode_frame ~loc buf got
                with
                | r -> r
                | exception Rp_fault.Injected _ -> Error Torn
                | exception Unix.Unix_error _ -> Error Torn))

  (* --- live accounting --- *)

  let mark_dead t loc =
    with_mu t (fun () ->
        match Hashtbl.find_opt t.segs loc.segment with
        | Some seg ->
            seg.live <- max 0 (seg.live - loc.len);
            maybe_drop_locked t seg
        | None -> ())

  let total_bytes t = with_mu t (fun () -> t.total)

  let live_bytes t =
    with_mu t (fun () -> Hashtbl.fold (fun _ seg acc -> acc + seg.live) t.segs 0)

  let segment_count t = with_mu t (fun () -> Hashtbl.length t.segs)

  (* --- compaction support --- *)

  let segment_entries t gen =
    let path =
      with_mu t (fun () ->
          match Hashtbl.find_opt t.segs gen with
          | Some seg -> Some seg.path
          | None -> None)
    in
    match path with
    | None -> []
    | Some path -> (
        match open_in_bin path with
        | exception Sys_error _ -> []
        | ic ->
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let acc = ref [] in
                let rec walk () =
                  let offset = pos_in ic in
                  match Frame.read ic with
                  | Frame.Record payload ->
                      (match decode_payload payload with
                      | Some (key, data) ->
                          let len = Frame.header_bytes + String.length payload in
                          acc := ({ segment = gen; offset; len }, key, data) :: !acc
                      | None -> ());
                      walk ()
                  | Frame.End | Frame.Torn _ -> ()
                in
                walk ();
                List.rev !acc))

  let compact_candidate t ~min_dead_ratio =
    with_mu t (fun () ->
        Hashtbl.fold
          (fun _ seg best ->
            if seg.sealed && seg.recovered && seg.bytes > 0 then begin
              let dead =
                float_of_int (seg.bytes - seg.live) /. float_of_int seg.bytes
              in
              if dead >= min_dead_ratio then
                match best with
                | Some (_, best_dead) when best_dead >= dead -> best
                | _ -> Some (seg.gen, dead)
              else best
            end
            else best)
          t.segs None
        |> Option.map fst)

  (* --- recovery --- *)

  let finish_recovery t ~is_live =
    let pending =
      with_mu t (fun () ->
          Hashtbl.fold
            (fun _ seg acc -> if seg.recovered then acc else seg.gen :: acc)
            t.segs [])
    in
    let dropped = ref 0 in
    List.iter
      (fun gen ->
        (* Walk outside the mutex (is_live does table lookups); the
           segment cannot vanish meanwhile — unrecovered segments are
           never dropped. *)
        let live =
          List.fold_left
            (fun acc (loc, key, _) -> if is_live key loc then acc + loc.len else acc)
            0 (segment_entries t gen)
        in
        with_mu t (fun () ->
            match Hashtbl.find_opt t.segs gen with
            | Some seg ->
                seg.live <- live;
                seg.recovered <- true;
                if live = 0 then begin
                  drop_locked t seg;
                  incr dropped
                end
            | None -> ()))
      (List.sort compare pending);
    !dropped

  let close t =
    with_mu t (fun () ->
        if not t.closed then begin
          t.closed <- true;
          match t.head.fd with
          | Some fd ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              t.head.fd <- None
          | None -> ()
        end)
end
