type op_tag =
  | Tset
  | Tadd
  | Treplace
  | Tappend
  | Tprepend
  | Tcas
  | Tincr
  | Tdecr
  | Ttouch

type t =
  | Set of {
      op : op_tag;
      key : string;
      flags : int;
      exptime : float;
      cas : int;
      data : string;
    }
  | Delete of string
  | Flush_all

let op_byte = function
  | Tset -> 0
  | Tadd -> 1
  | Treplace -> 2
  | Tappend -> 3
  | Tprepend -> 4
  | Tcas -> 5
  | Tincr -> 6
  | Tdecr -> 7
  | Ttouch -> 8

let op_of_byte = function
  | 0 -> Some Tset
  | 1 -> Some Tadd
  | 2 -> Some Treplace
  | 3 -> Some Tappend
  | 4 -> Some Tprepend
  | 5 -> Some Tcas
  | 6 -> Some Tincr
  | 7 -> Some Tdecr
  | 8 -> Some Ttouch
  | _ -> None

let add_u32 buf n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Buffer.add_bytes buf b

let add_u64 buf n =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int n);
  Buffer.add_bytes buf b

let add_f64 buf f =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.bits_of_float f);
  Buffer.add_bytes buf b

let encode r =
  let buf = Buffer.create 64 in
  (match r with
  | Set { op; key; flags; exptime; cas; data } ->
      Buffer.add_char buf '\001';
      Buffer.add_char buf (Char.chr (op_byte op));
      add_u32 buf flags;
      add_u64 buf cas;
      add_f64 buf exptime;
      add_u32 buf (String.length key);
      Buffer.add_string buf key;
      add_u32 buf (String.length data);
      Buffer.add_string buf data
  | Delete key ->
      Buffer.add_char buf '\002';
      add_u32 buf (String.length key);
      Buffer.add_string buf key
  | Flush_all -> Buffer.add_char buf '\003');
  Buffer.contents buf

(* Sequential decoder over the payload string. *)
exception Bad of string

let decode s =
  let pos = ref 0 in
  let need n what =
    if !pos + n > String.length s then raise (Bad ("truncated " ^ what))
  in
  let u8 what =
    need 1 what;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let u32 what =
    need 4 what;
    let v =
      Int32.to_int (Bytes.get_int32_be (Bytes.unsafe_of_string s) !pos)
      land 0xFFFFFFFF
    in
    pos := !pos + 4;
    v
  in
  let i64 what =
    need 8 what;
    let v = Bytes.get_int64_be (Bytes.unsafe_of_string s) !pos in
    pos := !pos + 8;
    v
  in
  let str what =
    let n = u32 (what ^ " length") in
    need n what;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  let finish r =
    if !pos <> String.length s then Error "trailing bytes" else Ok r
  in
  match
    match u8 "tag" with
    | 1 ->
        let op =
          match op_of_byte (u8 "op") with
          | Some op -> op
          | None -> raise (Bad "unknown op tag")
        in
        let flags = u32 "flags" in
        let cas = Int64.to_int (i64 "cas") in
        let exptime = Int64.float_of_bits (i64 "exptime") in
        let key = str "key" in
        let data = str "data" in
        finish (Set { op; key; flags; exptime; cas; data })
    | 2 -> finish (Delete (str "key"))
    | 3 -> finish Flush_all
    | n -> raise (Bad (Printf.sprintf "unknown record tag %d" n))
  with
  | r -> r
  | exception Bad msg -> Error msg
