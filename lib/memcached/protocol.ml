type storage = {
  key : string;
  flags : int;
  exptime : int;
  noreply : bool;
  data : string;
}

type request =
  | Get of string list
  | Gets of string list
  | Set of storage
  | Add of storage
  | Replace of storage
  | Append of storage
  | Prepend of storage
  | Cas of storage * int
  | Delete of { key : string; noreply : bool }
  | Incr of { key : string; delta : int; noreply : bool }
  | Decr of { key : string; delta : int; noreply : bool }
  | Touch of { key : string; exptime : int; noreply : bool }
  | Stats of string option
  | Trace_dump of int option  (** [trace dump [n]]: flight-recorder export *)
  | Heat_dump of int option  (** [heat dump [n]]: workload-insight export *)
  | Cluster_promote  (** [cluster promote]: replica -> leader *)
  | Flush_all of { noreply : bool }
  | Version
  | Quit

type value = { vkey : string; vflags : int; vdata : string; vcas : int option }

type response =
  | Values of value list
  | Stored
  | Not_stored
  | Exists
  | Not_found
  | Deleted
  | Touched
  | Ok_reply
  | Version_reply of string
  | Number of int
  | Stats_reply of (string * string) list
  | Trace_json of string
      (** one line of trace-event JSON, terminated by [END] *)
  | Client_error of string
  | Server_error of string
  | Error_reply

let crlf = "\r\n"

let request_key_valid key =
  let len = String.length key in
  len >= 1 && len <= 250
  && String.for_all (fun c -> c > ' ' && c <> '\x7f') key

(* --- encoding --- *)

let encode_storage verb ({ key; flags; exptime; noreply; data } : storage) extra =
  Printf.sprintf "%s %s %d %d %d%s%s%s%s%s" verb key flags exptime
    (String.length data) extra
    (if noreply then " noreply" else "")
    crlf data crlf

let encode_request = function
  | Get keys -> "get " ^ String.concat " " keys ^ crlf
  | Gets keys -> "gets " ^ String.concat " " keys ^ crlf
  | Set s -> encode_storage "set" s ""
  | Add s -> encode_storage "add" s ""
  | Replace s -> encode_storage "replace" s ""
  | Append s -> encode_storage "append" s ""
  | Prepend s -> encode_storage "prepend" s ""
  | Cas (s, unique) -> encode_storage "cas" s (Printf.sprintf " %d" unique)
  | Delete { key; noreply } ->
      Printf.sprintf "delete %s%s%s" key (if noreply then " noreply" else "") crlf
  | Incr { key; delta; noreply } ->
      Printf.sprintf "incr %s %d%s%s" key delta (if noreply then " noreply" else "") crlf
  | Decr { key; delta; noreply } ->
      Printf.sprintf "decr %s %d%s%s" key delta (if noreply then " noreply" else "") crlf
  | Touch { key; exptime; noreply } ->
      Printf.sprintf "touch %s %d%s%s" key exptime
        (if noreply then " noreply" else "")
        crlf
  | Stats None -> "stats" ^ crlf
  | Stats (Some arg) -> "stats " ^ arg ^ crlf
  | Trace_dump None -> "trace dump" ^ crlf
  | Trace_dump (Some n) -> Printf.sprintf "trace dump %d%s" n crlf
  | Heat_dump None -> "heat dump" ^ crlf
  | Heat_dump (Some n) -> Printf.sprintf "heat dump %d%s" n crlf
  | Cluster_promote -> "cluster promote" ^ crlf
  | Flush_all { noreply } ->
      Printf.sprintf "flush_all%s%s" (if noreply then " noreply" else "") crlf
  | Version -> "version" ^ crlf
  | Quit -> "quit" ^ crlf

let end_line = "END\r\n"
let stored_line = "STORED\r\n"
let not_stored_line = "NOT_STORED\r\n"
let exists_line = "EXISTS\r\n"
let not_found_line = "NOT_FOUND\r\n"
let deleted_line = "DELETED\r\n"
let touched_line = "TOUCHED\r\n"
let ok_line = "OK\r\n"
let error_line = "ERROR\r\n"

(* --- VALUE blocks ---

   A hit renders as three appends: its header line, built in a reused
   scratch, then the value, then CRLF. The scratch is the domain's own
   and always starts with "VALUE "; the key and the numbers are written
   after it in place. *)

let rec count_digits n =
  if n < 10 then 1
  else if n < 100 then 2
  else if n < 1000 then 3
  else if n < 10000 then 4
  else 4 + count_digits (n / 10000)

let digit b i d = Bytes.unsafe_set b i (Char.unsafe_chr (48 + d))

(* The digits of [n >= 0], the last one at [i] of [b]. *)
let rec fill_digits b i n =
  digit b i (n mod 10);
  if n >= 10 then fill_digits b (i - 1) (n / 10)

(* [n >= 0] in decimal at [pos] of [b]; the index past it. Numbers
   under 1000 — a hit's flags and most value lengths — are written with
   independent divisions instead of a chain of them. *)
let put_nat b pos n =
  if n < 10 then begin
    digit b pos n;
    pos + 1
  end
  else if n < 100 then begin
    let q = n / 10 in
    digit b pos q;
    digit b (pos + 1) (n - (10 * q));
    pos + 2
  end
  else if n < 1000 then begin
    let h = n / 100 and q = n / 10 in
    digit b pos h;
    digit b (pos + 1) (q - (10 * h));
    digit b (pos + 2) (n - (10 * q));
    pos + 3
  end
  else begin
    let stop = pos + count_digits n in
    fill_digits b (stop - 1) n;
    stop
  end

(* Any [n]: a negative one's magnitude is written from [-(n / 10)] and
   [-(n mod 10)], which stay in range for [min_int]. *)
let put_int b pos n =
  if n >= 0 then put_nat b pos n
  else begin
    Bytes.unsafe_set b pos '-';
    let q = -(n / 10) in
    let pos = if q > 0 then put_nat b (pos + 1) q else pos + 1 in
    Bytes.unsafe_set b pos (Char.unsafe_chr (48 - (n mod 10)));
    pos + 1
  end

let value_prefix = "VALUE "

(* Room for the prefix, three numbers of up to 20 characters, their
   spaces and CRLF. *)
let header_room key_len = String.length value_prefix + key_len + 66

let new_header key_len =
  let h = Bytes.create (header_room (max key_len 250)) in
  Bytes.blit_string value_prefix 0 h 0 (String.length value_prefix);
  h

let header_key = Domain.DLS.new_key (fun () -> new_header 250)

let header_scratch key_len =
  let h = Domain.DLS.get header_key in
  if Bytes.length h >= header_room key_len then h
  else begin
    let h = new_header key_len in
    Domain.DLS.set header_key h;
    h
  end

let add_value_slice buf kbuf koff klen ~flags ~with_cas ~cas dbuf doff dlen =
  let h = header_scratch klen in
  let p = String.length value_prefix in
  Bytes.unsafe_blit kbuf koff h p klen;
  let p = p + klen in
  Bytes.unsafe_set h p ' ';
  let p = put_int h (p + 1) flags in
  Bytes.unsafe_set h p ' ';
  let p = put_nat h (p + 1) dlen in
  let p =
    if with_cas then begin
      Bytes.unsafe_set h p ' ';
      put_int h (p + 1) cas
    end
    else p
  in
  Bytes.unsafe_set h p '\r';
  Bytes.unsafe_set h (p + 1) '\n';
  Buffer.add_subbytes buf h 0 (p + 2);
  Buffer.add_subbytes buf dbuf doff dlen;
  Buffer.add_string buf crlf

let add_value buf { vkey; vflags; vdata; vcas } =
  let key = Bytes.unsafe_of_string vkey and len = String.length vkey in
  let data = Bytes.unsafe_of_string vdata and dlen = String.length vdata in
  match vcas with
  | None -> add_value_slice buf key 0 len ~flags:vflags ~with_cas:false ~cas:0 data 0 dlen
  | Some cas -> add_value_slice buf key 0 len ~flags:vflags ~with_cas:true ~cas data 0 dlen

(* A number reply's digits, written past the scratch's prefix: neither
   [string_of_int] nor a character at a time. *)
let add_int buf n =
  let h = header_scratch 0 and p = String.length value_prefix in
  Buffer.add_subbytes buf h p (put_int h p n - p)

let add_end buf = Buffer.add_string buf end_line

let rec add_values buf = function
  | [] -> add_end buf
  | v :: rest ->
      add_value buf v;
      add_values buf rest

(* Renders straight into a caller-owned buffer so a pipelined batch of
   responses coalesces without one string allocation per command. *)
let encode_response_into buf = function
  | Values values -> add_values buf values
  | Stored -> Buffer.add_string buf stored_line
  | Not_stored -> Buffer.add_string buf not_stored_line
  | Exists -> Buffer.add_string buf exists_line
  | Not_found -> Buffer.add_string buf not_found_line
  | Deleted -> Buffer.add_string buf deleted_line
  | Touched -> Buffer.add_string buf touched_line
  | Ok_reply -> Buffer.add_string buf ok_line
  | Version_reply v ->
      Buffer.add_string buf "VERSION ";
      Buffer.add_string buf v;
      Buffer.add_string buf crlf
  | Number n ->
      add_int buf n;
      Buffer.add_string buf crlf
  | Stats_reply stats ->
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf "STAT ";
          Buffer.add_string buf k;
          Buffer.add_char buf ' ';
          Buffer.add_string buf v;
          Buffer.add_string buf crlf)
        stats;
      Buffer.add_string buf end_line
  | Trace_json json ->
      Buffer.add_string buf json;
      Buffer.add_string buf crlf;
      Buffer.add_string buf end_line
  | Client_error msg ->
      Buffer.add_string buf "CLIENT_ERROR ";
      Buffer.add_string buf msg;
      Buffer.add_string buf crlf
  | Server_error msg ->
      Buffer.add_string buf "SERVER_ERROR ";
      Buffer.add_string buf msg;
      Buffer.add_string buf crlf
  | Error_reply -> Buffer.add_string buf error_line

let encode_response response =
  let buf = Buffer.create 128 in
  encode_response_into buf response;
  Buffer.contents buf

(* --- the input window ---

   One growable byte window per input stream. The unread bytes are
   [data.[pos] .. data.[len - 1]]; reads land at the tail, parsers scan
   the window in place and copy out only what they keep. *)

module Inbuf = struct
  type t = { mutable data : Bytes.t; mutable pos : int; mutable len : int }

  let retain_bytes = 262_144

  let create () = { data = Bytes.empty; pos = 0; len = 0 }
  let available t = t.len - t.pos
  let capacity t = Bytes.length t.data

  (* Room for [n] more bytes at [len]. The unread bytes slide to the
     front only when the tail is too short, into a window twice as large
     only when they and [n] do not fit at all. *)
  let reserve t n =
    let cap = Bytes.length t.data in
    if t.len + n > cap then begin
      let avail = t.len - t.pos in
      let data =
        if avail + n <= cap then t.data else Bytes.create (Int.max (avail + n) (2 * cap))
      in
      Bytes.blit t.data t.pos data 0 avail;
      t.data <- data;
      t.pos <- 0;
      t.len <- avail
    end

  let commit t n = t.len <- t.len + n

  (* Consume up to [p]. A drained window restarts at offset 0, and one
     grown past [retain_bytes] is let go. *)
  let advance t p =
    if p < t.len then t.pos <- p
    else begin
      t.pos <- 0;
      t.len <- 0;
      if Bytes.length t.data > retain_bytes then t.data <- Bytes.empty
    end

  let release t =
    if t.pos = t.len then begin
      t.data <- Bytes.empty;
      t.pos <- 0;
      t.len <- 0
    end

  let feed t s =
    let n = String.length s in
    reserve t n;
    Bytes.blit_string s 0 t.data t.len n;
    commit t n

  let rec crlf_from s i last =
    if i >= last then -1
    else if Bytes.unsafe_get s i = '\r' && Bytes.unsafe_get s (i + 1) = '\n' then i
    else crlf_from s (i + 1) last

  (* Index of the next CRLF at or after [pos], or -1. *)
  let find_crlf t = crlf_from t.data t.pos (t.len - 1)

  (* A CRLF-terminated line, without the terminator. *)
  let take_line t =
    let i = find_crlf t in
    if i < 0 then None
    else begin
      let line = Bytes.sub_string t.data t.pos (i - t.pos) in
      advance t (i + 2);
      Some line
    end

  (* Drop buffered bytes up to and including the next CRLF. Returns
     [true] once a CRLF was consumed; [false] when the buffer ran dry
     first (a trailing '\r' is kept so a CRLF split across feed chunks
     is still recognised). *)
  let discard_line t =
    let i = find_crlf t in
    if i >= 0 then begin
      advance t (i + 2);
      true
    end
    else begin
      let cr = t.len > t.pos && Bytes.get t.data (t.len - 1) = '\r' in
      advance t (if cr then t.len - 1 else t.len);
      false
    end

  (* [n] data bytes followed by CRLF. *)
  let take_block t n =
    if available t < n + 2 then None
    else begin
      let p = t.pos in
      let block = Bytes.sub_string t.data p n in
      let terminated =
        Bytes.get t.data (p + n) = '\r' && Bytes.get t.data (p + n + 1) = '\n'
      in
      advance t (p + n + 2);
      Some (block, terminated)
    end
end

(* --- key slices ---

   A multiget's keys as slices of one byte buffer, each with its hash:
   the GET-run scanner records them straight out of the input window,
   and a caller holding strings copies them into a buffer of its own. *)

module Keys = struct
  type t = {
    mutable buf : Bytes.t;
    mutable offs : int array;
    mutable lens : int array;
    mutable hashes : int array;
    mutable n : int;
  }

  let create () = { buf = Bytes.empty; offs = [||]; lens = [||]; hashes = [||]; n = 0 }

  let key t i =
    if i < 0 || i >= t.n then invalid_arg "Protocol.Keys.key";
    Bytes.sub_string t.buf t.offs.(i) t.lens.(i)

  let rec keys_before t i acc = if i < 0 then acc else keys_before t (i - 1) (key t i :: acc)
  let to_list t = keys_before t (t.n - 1) []

  let grow t =
    let cap = max 8 (2 * Array.length t.offs) in
    let extend a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.offs <- extend t.offs;
    t.lens <- extend t.lens;
    t.hashes <- extend t.hashes

  let push t off len hash =
    if t.n = Array.length t.offs then grow t;
    let i = t.n in
    Array.unsafe_set t.offs i off;
    Array.unsafe_set t.lens i len;
    Array.unsafe_set t.hashes i hash;
    t.n <- i + 1

  let rec total_bytes acc = function
    | [] -> acc
    | k :: rest -> total_bytes (acc + String.length k) rest

  let rec copy t off = function
    | [] -> ()
    | k :: rest ->
        let len = String.length k in
        Bytes.unsafe_blit_string k 0 t.buf off len;
        push t off len (Rp_hashes.Hashfn.fnv1a_string k);
        copy t (off + len) rest

  let stage t keys =
    let bytes = total_bytes 0 keys in
    if Bytes.length t.buf < bytes then
      t.buf <- Bytes.create (max bytes (2 * Bytes.length t.buf));
    t.n <- 0;
    copy t 0 keys
end

(* A run of consecutive get, gets and set lines read in place: every
   key (a set line has one), where each line's keys end, and each set
   line's numbers and data block. The per-line arrays are indexed by
   line; a get line's entries in the set-only ones are left as they
   were. *)
module Run = struct
  type kind = Get_line | Gets_line | Set_line | Set_noreply_line

  type t = {
    keys : Keys.t;
    mutable kinds : kind array;
    mutable ends : int array;
    mutable flags : int array;
    mutable exptimes : int array;
    mutable data_offs : int array;
    mutable data_lens : int array;
    mutable lines : int;
    mutable sets : int;
  }

  let create () =
    {
      keys = Keys.create ();
      kinds = [||];
      ends = [||];
      flags = [||];
      exptimes = [||];
      data_offs = [||];
      data_lens = [||];
      lines = 0;
      sets = 0;
    }

  let is_set t l =
    match Array.unsafe_get t.kinds l with
    | Set_line | Set_noreply_line -> true
    | Get_line | Gets_line -> false

  let first_key t l = if l = 0 then 0 else Array.unsafe_get t.ends (l - 1)

  let grow t =
    let cap = max 8 (2 * t.lines) in
    let extend a zero =
      let b = Array.make cap zero in
      Array.blit a 0 b 0 t.lines;
      b
    in
    t.kinds <- extend t.kinds Get_line;
    t.ends <- extend t.ends 0;
    t.flags <- extend t.flags 0;
    t.exptimes <- extend t.exptimes 0;
    t.data_offs <- extend t.data_offs 0;
    t.data_lens <- extend t.data_lens 0

  let end_line t kind =
    if t.lines = Array.length t.ends then grow t;
    Array.unsafe_set t.kinds t.lines kind;
    Array.unsafe_set t.ends t.lines t.keys.n;
    t.lines <- t.lines + 1

  let end_set t ~noreply ~flags ~exptime ~off ~len =
    let l = t.lines in
    end_line t (if noreply then Set_noreply_line else Set_line);
    Array.unsafe_set t.flags l flags;
    Array.unsafe_set t.exptimes l exptime;
    Array.unsafe_set t.data_offs l off;
    Array.unsafe_set t.data_lens l len;
    t.sets <- t.sets + 1
end

(* --- request parser --- *)

module Parser = struct
  type pending = {
    verb : string;
    key : string;
    flags : int;
    exptime : int;
    bytes : int;
    noreply : bool;
    cas : int option;
  }

  type state = Await_line | Await_data of pending | Discard_line

  type t = {
    inbuf : Inbuf.t;
    max_line : int;
    mutable state : state;
    run : Run.t;  (* the run [run] read last *)
  }

  let create ?(max_line = 8192) ?(inbuf = Inbuf.create ()) () =
    if max_line < 1 then invalid_arg "Protocol.Parser.create: max_line < 1";
    { inbuf; max_line; state = Await_line; run = Run.create () }
  let feed t s = Inbuf.feed t.inbuf s
  let buffered_bytes t = Inbuf.available t.inbuf

  let tokens line =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

  let int_arg s = int_of_string_opt s

  let storage_of pending data : storage =
    {
      key = pending.key;
      flags = pending.flags;
      exptime = pending.exptime;
      noreply = pending.noreply;
      data;
    }

  let finish_storage pending data =
    let s = storage_of pending data in
    match pending.verb with
    | "set" -> Ok (Set s)
    | "add" -> Ok (Add s)
    | "replace" -> Ok (Replace s)
    | "append" -> Ok (Append s)
    | "prepend" -> Ok (Prepend s)
    | "cas" -> (
        match pending.cas with
        | Some unique -> Ok (Cas (s, unique))
        | None -> Error "cas without unique")
    | verb -> Error ("unknown storage verb " ^ verb)

  let parse_storage_line verb args =
    let with_cas = verb = "cas" in
    let consume key flags exptime bytes cas rest =
      match (int_arg flags, int_arg exptime, int_arg bytes) with
      | Some flags, Some exptime, Some bytes when bytes >= 0 ->
          if not (request_key_valid key) then Error "bad key"
          else begin
            let noreply = rest = [ "noreply" ] in
            if rest <> [] && not noreply then Error "bad command line format"
            else
              Ok { verb; key; flags; exptime; bytes; noreply; cas }
          end
      | _ -> Error "bad command line format"
    in
    match (with_cas, args) with
    | false, key :: flags :: exptime :: bytes :: rest ->
        consume key flags exptime bytes None rest
    | true, key :: flags :: exptime :: bytes :: unique :: rest -> (
        match int_arg unique with
        | Some u -> consume key flags exptime bytes (Some u) rest
        | None -> Error "bad cas unique")
    | _ -> Error "bad command line format"

  let parse_keys verb keys =
    if keys = [] then Error ("bad " ^ verb ^ ": no keys")
    else if List.for_all request_key_valid keys then Ok keys
    else Error "bad key"

  let parse_line t line =
    match tokens line with
    | [] -> None (* empty line: ignore, keep reading *)
    | verb :: args -> (
        match verb with
        | "get" -> (
            match parse_keys "get" args with
            | Ok keys -> Some (Ok (Get keys))
            | Error e -> Some (Error e))
        | "gets" -> (
            match parse_keys "gets" args with
            | Ok keys -> Some (Ok (Gets keys))
            | Error e -> Some (Error e))
        | "set" | "add" | "replace" | "append" | "prepend" | "cas" -> (
            match parse_storage_line verb args with
            | Ok pending ->
                t.state <- Await_data pending;
                None
            | Error e -> Some (Error e))
        | "delete" -> (
            match args with
            | [ key ] when request_key_valid key ->
                Some (Ok (Delete { key; noreply = false }))
            | [ key; "noreply" ] when request_key_valid key ->
                Some (Ok (Delete { key; noreply = true }))
            | _ -> Some (Error "bad delete"))
        | "incr" | "decr" -> (
            let build key delta noreply =
              if verb = "incr" then Incr { key; delta; noreply }
              else Decr { key; delta; noreply }
            in
            match args with
            | [ key; delta ] when request_key_valid key -> (
                match int_arg delta with
                | Some d when d >= 0 -> Some (Ok (build key d false))
                | _ -> Some (Error "invalid numeric delta argument"))
            | [ key; delta; "noreply" ] when request_key_valid key -> (
                match int_arg delta with
                | Some d when d >= 0 -> Some (Ok (build key d true))
                | _ -> Some (Error "invalid numeric delta argument"))
            | _ -> Some (Error ("bad " ^ verb)))
        | "touch" -> (
            match args with
            | [ key; exptime ] when request_key_valid key -> (
                match int_arg exptime with
                | Some e -> Some (Ok (Touch { key; exptime = e; noreply = false }))
                | None -> Some (Error "bad touch"))
            | [ key; exptime; "noreply" ] when request_key_valid key -> (
                match int_arg exptime with
                | Some e -> Some (Ok (Touch { key; exptime = e; noreply = true }))
                | None -> Some (Error "bad touch"))
            | _ -> Some (Error "bad touch"))
        | "stats" -> (
            match args with
            | [] -> Some (Ok (Stats None))
            | [ arg ] -> Some (Ok (Stats (Some arg)))
            | _ -> Some (Error "bad stats"))
        | "trace" -> (
            match args with
            | [ "dump" ] -> Some (Ok (Trace_dump None))
            | [ "dump"; n ] -> (
                match int_arg n with
                | Some n when n > 0 -> Some (Ok (Trace_dump (Some n)))
                | _ -> Some (Error "bad trace dump count"))
            | _ -> Some (Error "bad trace"))
        | "heat" -> (
            match args with
            | [ "dump" ] -> Some (Ok (Heat_dump None))
            | [ "dump"; n ] -> (
                match int_arg n with
                | Some n when n > 0 -> Some (Ok (Heat_dump (Some n)))
                | _ -> Some (Error "bad heat dump count"))
            | _ -> Some (Error "bad heat"))
        | "cluster" -> (
            match args with
            | [ "promote" ] -> Some (Ok Cluster_promote)
            | _ -> Some (Error "bad cluster"))
        | "flush_all" -> (
            match args with
            | [] -> Some (Ok (Flush_all { noreply = false }))
            | [ "noreply" ] -> Some (Ok (Flush_all { noreply = true }))
            | _ -> Some (Error "bad flush_all"))
        | "version" -> Some (Ok Version)
        | "quit" -> Some (Ok Quit)
        | _ -> Some (Error "ERROR"))

  (* --- get, gets and set lines, scanned in place ---

     The hot requests. Consecutive well-formed get, gets and set lines
     are read once, straight out of the input window: no line copy, no
     token list, no key or data string. Each key is recorded as a slice
     of the window with its hash, computed in the pass that finds the
     key's end; a set line's data block is recorded as a slice too. A
     line the scan does not take is left in the window for the general
     path below, which gives the same result for every line the scan
     takes:
     - a get or gets line's keys are the space-separated tokens after
       the verb;
     - a set line is [set <key> <flags> <exptime> <bytes>[ noreply]]
       with single spaces, plain decimal numbers of 1 to 18 digits, and
       its whole data block and the CRLF after it already buffered.
     Anything else — no CRLF yet, a missing or invalid key, a signed or
     non-decimal number, extra spaces, a block not yet complete or not
     followed by CRLF, an over-long line — ends the run.

     The scans read the window's bytes below [lim] (its [len]) and never
     view it as a string: the window is mutable and is reused. *)

  exception Not_simple

  (* The key starting at [start], whose bytes before [j] hash to [h]:
     pushed on [keys] with its hash once the space or CR that ends it is
     found; returns that index. Each byte takes one step of
     {!Rp_hashes.Hashfn.fnv1a_string}, written out here so the byte loop
     makes no call. *)
  let rec scan_key keys s lim start j h =
    if j >= lim then raise_notrace Not_simple
    else
      let c = Bytes.unsafe_get s j in
      if c > ' ' && c <> '\x7f' then
        scan_key keys s lim start (j + 1) ((h lxor Char.code c) * Rp_hashes.Hashfn.fnv_prime)
      else if (c = ' ' || c = '\r') && j > start && j - start <= 250 then begin
        Keys.push keys start (j - start) (Rp_hashes.Hashfn.splitmix64 h);
        j
      end
      else raise_notrace Not_simple

  (* The keys from [i] to the end of the line, pushed on [keys] with
     their hashes; returns the index of the line's CRLF. *)
  let rec scan_keys keys s lim i =
    if i + 1 >= lim then raise_notrace Not_simple
    else
      match Bytes.unsafe_get s i with
      | ' ' -> scan_keys keys s lim (i + 1)
      | '\r' -> if Bytes.unsafe_get s (i + 1) = '\n' then i else raise_notrace Not_simple
      | _ -> scan_keys keys s lim (scan_key keys s lim i i Rp_hashes.Hashfn.fnv_offset)

  (* End of the run of decimal digits starting at [i]: 1 to 18 of them,
     so the value cannot overflow. *)
  let rec digits_from s lim j =
    if j >= lim then raise_notrace Not_simple
    else match Bytes.unsafe_get s j with '0' .. '9' -> digits_from s lim (j + 1) | _ -> j

  let digits_end s lim i =
    let j = digits_from s lim i in
    if j = i || j - i > 18 then raise_notrace Not_simple;
    j

  let rec decimal s i j acc =
    if i = j then acc
    else decimal s (i + 1) j ((acc * 10) + Char.code (Bytes.unsafe_get s i) - 48)

  let expect s lim i c =
    if i >= lim || Bytes.unsafe_get s i <> c then raise_notrace Not_simple

  (* [s] holds [word] from [i] on. *)
  let expect_word s lim i word =
    for j = 0 to String.length word - 1 do
      expect s lim (i + j) (String.unsafe_get word j)
    done

  (* The get line starting at [i], whose keys begin at [k]; returns
     where the next line starts. A line past [max_line], or one that
     would take a run that already has lines past [max_keys] keys, is
     not taken. *)
  let scan_get_line t (run : Run.t) s lim i k kind ~max_keys =
    let keys = run.keys in
    let n0 = keys.n in
    let eol = scan_keys keys s lim k in
    if eol - i > t.max_line || keys.n = n0 || (run.lines > 0 && keys.n > max_keys) then
      raise_notrace Not_simple;
    Run.end_line run kind;
    eol + 2

  (* The set line starting at [i] and its data block; returns where the
     next line starts. *)
  let scan_set_line t (run : Run.t) s lim i =
    let k = i + 4 in
    let ke = scan_key run.keys s lim k k Rp_hashes.Hashfn.fnv_offset in
    expect s lim ke ' ';
    let fe = digits_end s lim (ke + 1) in
    expect s lim fe ' ';
    let ee = digits_end s lim (fe + 1) in
    expect s lim ee ' ';
    let be = digits_end s lim (ee + 1) in
    let noreply = be < lim && Bytes.unsafe_get s be = ' ' in
    if noreply then expect_word s lim be " noreply";
    let eol = if noreply then be + 8 else be in
    expect s lim eol '\r';
    expect s lim (eol + 1) '\n';
    if eol - i > t.max_line then raise_notrace Not_simple;
    let bytes = decimal s (ee + 1) be 0 in
    let d = eol + 2 in
    expect s lim (d + bytes) '\r';
    expect s lim (d + bytes + 1) '\n';
    Run.end_set run ~noreply ~flags:(decimal s (ke + 1) fe 0)
      ~exptime:(decimal s (fe + 1) ee 0) ~off:d ~len:bytes;
    d + bytes + 2

  (* Take lines from [pos] while each is one the scans accept and the
     run stays within [max_keys] keys (its first line is taken whatever
     its key count); returns where the first line not taken starts. A
     full run stops before scanning another line: every line holds a
     key. *)
  let rec take_lines t (run : Run.t) s lim pos ~max_keys =
    let keys = run.keys in
    if (run.lines > 0 && keys.n >= max_keys) || lim - pos < 5 then pos
    else
      let n0 = keys.n in
      match
        if Bytes.unsafe_get s pos = 'g' && Bytes.unsafe_get s (pos + 1) = 'e'
           && Bytes.unsafe_get s (pos + 2) = 't'
        then
          match Bytes.unsafe_get s (pos + 3) with
          | ' ' -> scan_get_line t run s lim pos (pos + 4) Run.Get_line ~max_keys
          | 's' when Bytes.unsafe_get s (pos + 4) = ' ' ->
              scan_get_line t run s lim pos (pos + 5) Run.Gets_line ~max_keys
          | _ -> raise_notrace Not_simple
        else if Bytes.unsafe_get s pos = 's' && Bytes.unsafe_get s (pos + 1) = 'e'
                && Bytes.unsafe_get s (pos + 2) = 't' && Bytes.unsafe_get s (pos + 3) = ' '
        then scan_set_line t run s lim pos
        else raise_notrace Not_simple
      with
      | next -> take_lines t run s lim next ~max_keys
      | exception Not_simple ->
          keys.n <- n0;
          pos

  let run t ~max_keys =
    let run = t.run and w = t.inbuf in
    run.keys.n <- 0;
    run.lines <- 0;
    run.sets <- 0;
    run.keys.buf <- w.data;
    (match t.state with
    | Await_line ->
        let pos = take_lines t run w.data w.len w.pos ~max_keys in
        if run.lines > 0 then Inbuf.advance w pos
    | Await_data _ | Discard_line -> ());
    run

  (* A lone line through the run scanner, as a request. *)
  let scan t =
    let run = run t ~max_keys:0 in
    if run.lines = 0 then None
    else
      let keys = run.keys in
      Some
        (Ok
           (match run.kinds.(0) with
           | Run.Get_line -> Get (Keys.to_list keys)
           | Run.Gets_line -> Gets (Keys.to_list keys)
           | Run.Set_line | Run.Set_noreply_line ->
               Set
                 {
                   key = Keys.key keys 0;
                   flags = run.flags.(0);
                   exptime = run.exptimes.(0);
                   noreply = run.kinds.(0) = Run.Set_noreply_line;
                   data = Bytes.sub_string keys.buf run.data_offs.(0) run.data_lens.(0);
                 }))

  let rec next t =
    match t.state with
    | Await_line -> (
        match scan t with
        | Some _ as request -> request
        | None -> (
            match Inbuf.take_line t.inbuf with
            | None ->
                (* No CRLF in the buffer. If the partial line has already
                   outgrown the bound, report once and start discarding, so
                   a client streaming an endless line cannot balloon the
                   buffer. A line of [max_line] bytes may sit here with its
                   '\r' while the '\n' is still in flight. *)
                if Inbuf.available t.inbuf > t.max_line + 1 then begin
                  t.state <- Discard_line;
                  ignore (Inbuf.discard_line t.inbuf);
                  Some (Error "line too long")
                end
                else None
            | Some line ->
                if String.length line > t.max_line then Some (Error "line too long")
                else (
                  match parse_line t line with
                  | Some result -> Some result
                  | None -> next t (* storage header consumed; try for the data *))))
    | Discard_line ->
        (* Resynchronise at the next CRLF, dropping everything before it. *)
        if Inbuf.discard_line t.inbuf then begin
          t.state <- Await_line;
          next t
        end
        else None
    | Await_data pending -> (
        match Inbuf.take_block t.inbuf pending.bytes with
        | None -> None
        | Some (data, terminated) ->
            t.state <- Await_line;
            if not terminated then Some (Error "bad data chunk")
            else Some (finish_storage pending data))
end

(* --- response parser (client side) --- *)

module Response_parser = struct
  type state =
    | Start
    | In_values of value list
    | Value_data of { vkey : string; vflags : int; bytes : int; vcas : int option; acc : value list }
    | In_stats of (string * string) list
    | In_trace of string  (* the JSON line; awaiting its END *)

  type t = { inbuf : Inbuf.t; mutable state : state }

  let create () = { inbuf = Inbuf.create (); state = Start }
  let feed t s = Inbuf.feed t.inbuf s

  let parse_value_header parts =
    match parts with
    | [ vkey; vflags; bytes ] -> (
        match (int_of_string_opt vflags, int_of_string_opt bytes) with
        | Some f, Some b when b >= 0 -> Ok (vkey, f, b, None)
        | _ -> Error "bad VALUE header")
    | [ vkey; vflags; bytes; cas ] -> (
        match
          (int_of_string_opt vflags, int_of_string_opt bytes, int_of_string_opt cas)
        with
        | Some f, Some b, Some c when b >= 0 -> Ok (vkey, f, b, Some c)
        | _ -> Error "bad VALUE header")
    | _ -> Error "bad VALUE header"

  let rec next t =
    match t.state with
    | Start -> (
        match Inbuf.take_line t.inbuf with
        | None -> None
        | Some line when String.length line > 0 && line.[0] = '{' ->
            (* trace dump: one line of JSON, then END *)
            t.state <- In_trace line;
            next t
        | Some line -> (
            let parts =
              String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
            in
            match parts with
            | [ "STORED" ] -> Some (Ok Stored)
            | [ "NOT_STORED" ] -> Some (Ok Not_stored)
            | [ "EXISTS" ] -> Some (Ok Exists)
            | [ "NOT_FOUND" ] -> Some (Ok Not_found)
            | [ "DELETED" ] -> Some (Ok Deleted)
            | [ "TOUCHED" ] -> Some (Ok Touched)
            | [ "OK" ] -> Some (Ok Ok_reply)
            | [ "END" ] -> Some (Ok (Values []))
            | [ "ERROR" ] -> Some (Ok Error_reply)
            | "VERSION" :: rest -> Some (Ok (Version_reply (String.concat " " rest)))
            | "CLIENT_ERROR" :: rest ->
                Some (Ok (Client_error (String.concat " " rest)))
            | "SERVER_ERROR" :: rest ->
                Some (Ok (Server_error (String.concat " " rest)))
            | "VALUE" :: header -> (
                match parse_value_header header with
                | Ok (vkey, vflags, bytes, vcas) ->
                    t.state <- Value_data { vkey; vflags; bytes; vcas; acc = [] };
                    next t
                | Error e -> Some (Error e))
            | "STAT" :: key :: rest ->
                t.state <- In_stats [ (key, String.concat " " rest) ];
                next t
            | [ number ] when int_of_string_opt number <> None ->
                Some (Ok (Number (int_of_string number)))
            | _ -> Some (Error ("unparseable response line: " ^ line))))
    | In_values acc -> (
        match Inbuf.take_line t.inbuf with
        | None -> None
        | Some line -> (
            let parts =
              String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
            in
            match parts with
            | [ "END" ] ->
                t.state <- Start;
                Some (Ok (Values (List.rev acc)))
            | "VALUE" :: header -> (
                match parse_value_header header with
                | Ok (vkey, vflags, bytes, vcas) ->
                    t.state <- Value_data { vkey; vflags; bytes; vcas; acc };
                    next t
                | Error e ->
                    t.state <- Start;
                    Some (Error e))
            | _ ->
                t.state <- Start;
                Some (Error ("unexpected line in VALUE stream: " ^ line))))
    | Value_data { vkey; vflags; bytes; vcas; acc } -> (
        match Inbuf.take_block t.inbuf bytes with
        | None -> None
        | Some (data, terminated) ->
            if not terminated then begin
              t.state <- Start;
              Some (Error "bad value data chunk")
            end
            else begin
              t.state <- In_values ({ vkey; vflags; vdata = data; vcas } :: acc);
              next t
            end)
    | In_stats acc -> (
        match Inbuf.take_line t.inbuf with
        | None -> None
        | Some line -> (
            let parts =
              String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
            in
            match parts with
            | [ "END" ] ->
                t.state <- Start;
                Some (Ok (Stats_reply (List.rev acc)))
            | "STAT" :: key :: rest ->
                t.state <- In_stats ((key, String.concat " " rest) :: acc);
                next t
            | _ ->
                t.state <- Start;
                Some (Error ("unexpected line in STAT stream: " ^ line))))
    | In_trace json -> (
        match Inbuf.take_line t.inbuf with
        | None -> None
        | Some "END" ->
            t.state <- Start;
            Some (Ok (Trace_json json))
        | Some line ->
            t.state <- Start;
            Some (Error ("unexpected line after trace JSON: " ^ line)))
end
