open Binary_protocol

let reply ?(status = Ok_status) ?(key = "") ?(value = "") ?(extras = "")
    ?(cas = 0) (request : request) =
  {
    r_opcode = request.opcode;
    status;
    r_key = key;
    r_value = value;
    r_extras = extras;
    r_opaque = request.opaque;
    r_cas = cas;
  }

let quit_requested (r : request) = r.opcode = Quit

let stored_status : Store.stored_result -> status = function
  | Store.Stored -> Ok_status
  | Store.Not_stored -> Item_not_stored
  | Store.Exists -> Key_exists
  | Store.Not_found -> Key_not_found
  | Store.Too_large -> Value_too_large

let handle_get store (request : request) ~with_key ~quiet =
  match Store.get store request.key with
  | Some v ->
      [
        reply request
          ~key:(if with_key then request.key else "")
          ~value:v.Protocol.vdata
          ~extras:(get_response_extras ~flags:v.Protocol.vflags)
          ~cas:(Option.value ~default:0 v.Protocol.vcas);
      ]
  | None ->
      if quiet then [] (* quiet gets say nothing on a miss *)
      else
        [
          reply request ~status:Key_not_found
            ~key:(if with_key then request.key else "");
        ]

let handle_storage store (request : request) op =
  if String.length request.extras <> 8 then
    [ reply request ~status:Invalid_arguments ]
  else begin
    let flags = parse_u32 request.extras 0 in
    let exptime = parse_u32 request.extras 4 in
    let result =
      match op with
      | `Set ->
          if request.cas = 0 then
            Store.set store ~key:request.key ~flags ~exptime ~data:request.value
          else
            Store.cas store ~key:request.key ~flags ~exptime ~data:request.value
              ~unique:request.cas
      | `Add -> Store.add store ~key:request.key ~flags ~exptime ~data:request.value
      | `Replace ->
          Store.replace store ~key:request.key ~flags ~exptime ~data:request.value
    in
    match result with
    | Store.Stored ->
        let cas =
          match Store.get_many store ~with_cas:true [ request.key ] with
          | [ { Protocol.vcas = Some c; _ } ] -> c
          | _ -> 0
        in
        [ reply request ~cas ]
    | other -> [ reply request ~status:(stored_status other) ]
  end

(* Get-and-touch: bump the exptime, then serve the value like a get.
   A concurrent delete between the two steps reads as a miss, which is
   also what a client racing a delete could legitimately observe. *)
let handle_gat store (request : request) ~quiet =
  if String.length request.extras <> 4 then
    [ reply request ~status:Invalid_arguments ]
  else begin
    let exptime = parse_u32 request.extras 0 in
    if not (Store.touch store ~key:request.key ~exptime) then
      if quiet then [] else [ reply request ~status:Key_not_found ]
    else
      match Store.get store request.key with
      | Some v ->
          [
            reply request ~value:v.Protocol.vdata
              ~extras:(get_response_extras ~flags:v.Protocol.vflags)
              ~cas:(Option.value ~default:0 v.Protocol.vcas);
          ]
      | None ->
          if quiet then [] else [ reply request ~status:Key_not_found ]
  end

let handle_counter store (request : request) ~decrement =
  if String.length request.extras <> 20 then
    [ reply request ~status:Invalid_arguments ]
  else begin
    let delta = parse_u64 request.extras 0 in
    let initial = parse_u64 request.extras 8 in
    let exptime = parse_u32 request.extras 16 in
    let counter_reply n = [ reply request ~value:(u64_bytes n) ] in
    let op = if decrement then Store.decr else Store.incr in
    match op store request.key delta with
    | Store.Cvalue n -> counter_reply n
    | Store.Cnon_numeric -> [ reply request ~status:Non_numeric_value ]
    | Store.Cnotfound ->
        (* Binary protocol: a miss seeds the counter with [initial] unless
           exptime is all-ones (treated as "do not create"). *)
        if exptime = 0xffffffff then [ reply request ~status:Key_not_found ]
        else begin
          ignore
            (Store.set store ~key:request.key ~flags:0 ~exptime
               ~data:(string_of_int initial));
          counter_reply initial
        end
  end

(* Mirror of {!Dispatch.sheddable}: the opcodes the overload guard may
   fast-fail. Gets (quiet or not) always go through. *)
let sheddable_opcode = function
  | Set | Add | Replace | Delete | Increment | Decrement | Append | Prepend
  | Touch | Flush ->
      true
  | Get | GetQ | GetK | GetKQ | GAT | GATQ | Noop | Version | Stat | Quit ->
      false

let execute store (request : request) : response list =
  match request.opcode with
  | Get -> handle_get store request ~with_key:false ~quiet:false
  | GetQ -> handle_get store request ~with_key:false ~quiet:true
  | GetK -> handle_get store request ~with_key:true ~quiet:false
  | GetKQ -> handle_get store request ~with_key:true ~quiet:true
  | Set -> handle_storage store request `Set
  | Add -> handle_storage store request `Add
  | Replace -> handle_storage store request `Replace
  | Delete ->
      if Store.delete store request.key then [ reply request ]
      else [ reply request ~status:Key_not_found ]
  | Increment -> handle_counter store request ~decrement:false
  | Decrement -> handle_counter store request ~decrement:true
  | Append -> (
      match Store.append store ~key:request.key ~data:request.value with
      | Store.Stored -> [ reply request ]
      | other -> [ reply request ~status:(stored_status other) ])
  | Prepend -> (
      match Store.prepend store ~key:request.key ~data:request.value with
      | Store.Stored -> [ reply request ]
      | other -> [ reply request ~status:(stored_status other) ])
  | Touch ->
      if String.length request.extras <> 4 then
        [ reply request ~status:Invalid_arguments ]
      else begin
        let exptime = parse_u32 request.extras 0 in
        if Store.touch store ~key:request.key ~exptime then [ reply request ]
        else [ reply request ~status:Key_not_found ]
      end
  | Flush ->
      Store.flush_all store;
      [ reply request ]
  | Noop -> [ reply request ]
  | Version -> [ reply request ~value:Version.string ]
  | GAT -> handle_gat store request ~quiet:false
  | GATQ -> handle_gat store request ~quiet:true
  | Stat -> (
      (* The key selects the section, as [stats <arg>] does in text:
         one response per stat, then an empty-key terminator. *)
      match Store.stats_section store request.key with
      | None -> [ reply request ~status:Invalid_arguments ]
      | Some stats ->
          List.map (fun (k, v) -> reply request ~key:k ~value:v) stats
          @ [ reply request ])
  | Quit -> []

(* Mutations pass [Dispatch]'s gates first: the overload guard (a shed
   one answers [Busy]), then a following replica's read-only flag. *)
let handle store (request : request) =
  if sheddable_opcode request.opcode then
    match Dispatch.admit_mutation store with
    | Dispatch.Admit -> execute store request
    | Dispatch.Shed -> [ reply request ~status:Busy ]
    | Dispatch.Read_only -> [ reply request ~status:Read_only ]
  else execute store request
