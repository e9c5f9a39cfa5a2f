type opcode =
  | Get
  | Set
  | Add
  | Replace
  | Delete
  | Increment
  | Decrement
  | Quit
  | Flush
  | GetQ
  | Noop
  | Version
  | GetK
  | GetKQ
  | Append
  | Prepend
  | Stat
  | Touch
  | GAT
  | GATQ

let opcode_to_byte = function
  | Get -> 0x00
  | Set -> 0x01
  | Add -> 0x02
  | Replace -> 0x03
  | Delete -> 0x04
  | Increment -> 0x05
  | Decrement -> 0x06
  | Quit -> 0x07
  | Flush -> 0x08
  | GetQ -> 0x09
  | Noop -> 0x0a
  | Version -> 0x0b
  | GetK -> 0x0c
  | GetKQ -> 0x0d
  | Append -> 0x0e
  | Prepend -> 0x0f
  | Stat -> 0x10
  | Touch -> 0x1c
  | GAT -> 0x1d
  | GATQ -> 0x1e

let opcode_of_byte = function
  | 0x00 -> Some Get
  | 0x01 -> Some Set
  | 0x02 -> Some Add
  | 0x03 -> Some Replace
  | 0x04 -> Some Delete
  | 0x05 -> Some Increment
  | 0x06 -> Some Decrement
  | 0x07 -> Some Quit
  | 0x08 -> Some Flush
  | 0x09 -> Some GetQ
  | 0x0a -> Some Noop
  | 0x0b -> Some Version
  | 0x0c -> Some GetK
  | 0x0d -> Some GetKQ
  | 0x0e -> Some Append
  | 0x0f -> Some Prepend
  | 0x10 -> Some Stat
  | 0x1c -> Some Touch
  | 0x1d -> Some GAT
  | 0x1e -> Some GATQ
  | _ -> None

type status =
  | Ok_status
  | Key_not_found
  | Key_exists
  | Value_too_large
  | Invalid_arguments
  | Item_not_stored
  | Non_numeric_value
  | Busy  (** 0x0085 — mutation shed by the overload guard *)
  | Read_only  (** 0x0086 — mutation refused by a following replica *)
  | Unknown_command

let status_to_int = function
  | Ok_status -> 0x0000
  | Key_not_found -> 0x0001
  | Key_exists -> 0x0002
  | Value_too_large -> 0x0003
  | Invalid_arguments -> 0x0004
  | Item_not_stored -> 0x0005
  | Non_numeric_value -> 0x0006
  | Busy -> 0x0085
  | Read_only -> 0x0086
  | Unknown_command -> 0x0081

let status_of_int = function
  | 0x0000 -> Ok_status
  | 0x0001 -> Key_not_found
  | 0x0002 -> Key_exists
  | 0x0003 -> Value_too_large
  | 0x0004 -> Invalid_arguments
  | 0x0005 -> Item_not_stored
  | 0x0006 -> Non_numeric_value
  | 0x0085 -> Busy
  | 0x0086 -> Read_only
  | _ -> Unknown_command

type request = {
  opcode : opcode;
  key : string;
  value : string;
  extras : string;
  opaque : int;
  cas : int;
}

type response = {
  r_opcode : opcode;
  status : status;
  r_key : string;
  r_value : string;
  r_extras : string;
  r_opaque : int;
  r_cas : int;
}

let magic_request = 0x80
let magic_response = 0x81
let magic_request_byte = '\x80'
let header_size = 24

(* --- big-endian integer plumbing --- *)

let put_u16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let put_u32 b off v =
  put_u16 b off ((v lsr 16) land 0xffff);
  put_u16 b (off + 2) (v land 0xffff)

let put_u64 b off v =
  (* OCaml ints are 63-bit; the top wire byte carries bits 56..62. *)
  put_u32 b off ((v lsr 32) land 0xffffffff);
  put_u32 b (off + 4) (v land 0xffffffff)

let get_u32 b off = (Bytes.get_uint16_be b off lsl 16) lor Bytes.get_uint16_be b (off + 2)

let get_u64 b off =
  (* Mask to 62 bits to stay within OCaml int range. *)
  ((get_u32 b off land 0x3fffffff) lsl 32) lor get_u32 b (off + 4)

(* Extras arrive as strings; reading one as bytes never writes it. *)
let parse_u32 s off = get_u32 (Bytes.unsafe_of_string s) off
let parse_u64 s off = get_u64 (Bytes.unsafe_of_string s) off

(* --- extras helpers --- *)

let set_extras ~flags ~exptime =
  let b = Bytes.create 8 in
  put_u32 b 0 flags;
  put_u32 b 4 exptime;
  Bytes.to_string b

let get_response_extras ~flags =
  let b = Bytes.create 4 in
  put_u32 b 0 flags;
  Bytes.to_string b

let counter_extras ~delta ~initial ~exptime =
  let b = Bytes.create 20 in
  put_u64 b 0 delta;
  put_u64 b 8 initial;
  put_u32 b 16 exptime;
  Bytes.to_string b

let u64_bytes v =
  let b = Bytes.create 8 in
  put_u64 b 0 v;
  Bytes.to_string b

let touch_extras ~exptime =
  let b = Bytes.create 4 in
  put_u32 b 0 exptime;
  Bytes.to_string b

(* --- frame encoding --- *)

let encode ~magic ~opcode ~status_or_vbucket ~key ~extras ~value ~opaque ~cas =
  let key_len = String.length key in
  let extras_len = String.length extras in
  let body_len = key_len + extras_len + String.length value in
  let b = Bytes.create (header_size + body_len) in
  Bytes.set b 0 (Char.chr magic);
  Bytes.set b 1 (Char.chr (opcode_to_byte opcode));
  put_u16 b 2 key_len;
  Bytes.set b 4 (Char.chr extras_len);
  Bytes.set b 5 '\x00' (* data type *);
  put_u16 b 6 status_or_vbucket;
  put_u32 b 8 body_len;
  put_u32 b 12 opaque;
  put_u64 b 16 cas;
  Bytes.blit_string extras 0 b header_size extras_len;
  Bytes.blit_string key 0 b (header_size + extras_len) key_len;
  Bytes.blit_string value 0 b
    (header_size + extras_len + key_len)
    (String.length value);
  Bytes.to_string b

let encode_request (r : request) =
  encode ~magic:magic_request ~opcode:r.opcode ~status_or_vbucket:0 ~key:r.key
    ~extras:r.extras ~value:r.value ~opaque:r.opaque ~cas:r.cas

let encode_response (r : response) =
  encode ~magic:magic_response ~opcode:r.r_opcode
    ~status_or_vbucket:(status_to_int r.status) ~key:r.r_key ~extras:r.r_extras
    ~value:r.r_value ~opaque:r.r_opaque ~cas:r.r_cas

(* Buffer-native frame rendering: the event-loop workers coalesce every
   response of a pipelined batch into one caller-owned buffer without
   allocating a frame string per response. *)
let add_u16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let add_u32 buf v =
  add_u16 buf ((v lsr 16) land 0xffff);
  add_u16 buf (v land 0xffff)

let add_u64 buf v =
  add_u32 buf ((v lsr 32) land 0xffffffff);
  add_u32 buf (v land 0xffffffff)

let encode_response_into buf (r : response) =
  let key_len = String.length r.r_key in
  let extras_len = String.length r.r_extras in
  let body_len = key_len + extras_len + String.length r.r_value in
  Buffer.add_char buf (Char.chr magic_response);
  Buffer.add_char buf (Char.chr (opcode_to_byte r.r_opcode));
  add_u16 buf key_len;
  Buffer.add_char buf (Char.chr extras_len);
  Buffer.add_char buf '\x00' (* data type *);
  add_u16 buf (status_to_int r.status);
  add_u32 buf body_len;
  add_u32 buf r.r_opaque;
  add_u64 buf r.r_cas;
  Buffer.add_string buf r.r_extras;
  Buffer.add_string buf r.r_key;
  Buffer.add_string buf r.r_value

(* --- incremental frame decoding ---

   Frames are decoded in place from the input window shared with the
   text protocol ({!Protocol.Inbuf}): the header's fields are read
   straight out of it, and extras, key and value are the only copies. *)

(* The next complete frame carrying [expected_magic]: [decode opcode b
   base ~extras ~key ~value] builds the message whose 24-byte header
   starts at [base] of [b]. *)
let next_frame (w : Protocol.Inbuf.t) ~expected_magic decode =
  if Protocol.Inbuf.available w < header_size then None
  else begin
    let b = w.data and base = w.pos in
    let magic = Bytes.get_uint8 b base in
    if magic <> expected_magic then Some (Error (Printf.sprintf "bad magic 0x%02x" magic))
    else begin
      let key_len = Bytes.get_uint16_be b (base + 2) in
      let extras_len = Bytes.get_uint8 b (base + 4) in
      let body_len = get_u32 b (base + 8) in
      if extras_len + key_len > body_len then Some (Error "inconsistent lengths")
      else if Protocol.Inbuf.available w < header_size + body_len then None
      else begin
        let opcode = Bytes.get_uint8 b (base + 1) in
        let body = base + header_size in
        let frame =
          match opcode_of_byte opcode with
          | None -> Error (Printf.sprintf "unknown opcode 0x%02x" opcode)
          | Some opcode ->
              Ok
                (decode opcode b base
                   ~extras:(Bytes.sub_string b body extras_len)
                   ~key:(Bytes.sub_string b (body + extras_len) key_len)
                   ~value:
                     (Bytes.sub_string b (body + extras_len + key_len)
                        (body_len - extras_len - key_len)))
        in
        Protocol.Inbuf.advance w (body + body_len);
        Some frame
      end
    end
  end

module Parser = struct
  type t = Protocol.Inbuf.t

  let create ?(inbuf = Protocol.Inbuf.create ()) () = inbuf
  let feed = Protocol.Inbuf.feed

  let next t =
    next_frame t ~expected_magic:magic_request (fun opcode b base ~extras ~key ~value ->
        {
          opcode;
          key;
          value;
          extras;
          opaque = get_u32 b (base + 12);
          cas = get_u64 b (base + 16);
        })
end

module Response_parser = struct
  type t = Protocol.Inbuf.t

  let create () = Protocol.Inbuf.create ()
  let feed = Protocol.Inbuf.feed

  let next t =
    next_frame t ~expected_magic:magic_response
      (fun r_opcode b base ~extras:r_extras ~key:r_key ~value:r_value ->
        {
          r_opcode;
          status = status_of_int (Bytes.get_uint16_be b (base + 6));
          r_key;
          r_value;
          r_extras;
          r_opaque = get_u32 b (base + 12);
          r_cas = get_u64 b (base + 16);
        })
end
