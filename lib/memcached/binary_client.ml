open Binary_protocol

type member = {
  m_addr : Server.address;
  m_host : string;
  m_port : int;
  m_weight : int;
  mutable m_fd : Unix.file_descr option;
  mutable m_parser : Response_parser.t;
  mutable m_fails : int;
  mutable m_ejected_until : float;
}

type t = {
  members : member array;
  ring : Rp_cluster.Ring.t option;
  buf : Bytes.t;
  eject_after : int;
  rejoin_after : float;
  retries : int;
  mutable jitter_state : int;
}

let make_member addr ~host ~port ~weight =
  {
    m_addr = addr;
    m_host = host;
    m_port = port;
    m_weight = weight;
    m_fd = None;
    m_parser = Response_parser.create ();
    m_fails = 0;
    m_ejected_until = 0.;
  }

let close_member m =
  (match m.m_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  m.m_fd <- None

let ensure_fd m =
  match m.m_fd with
  | Some fd -> fd
  | None ->
      let domain, sockaddr = Server.sockaddr_of m.m_addr in
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      (try Unix.connect fd sockaddr
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      m.m_parser <- Response_parser.create ();
      m.m_fd <- Some fd;
      fd

let connect (addr : Server.address) =
  Io.ignore_sigpipe ();
  let host, port =
    match addr with
    | Server.Tcp p -> ("127.0.0.1", p)
    | Server.Inet (h, p) -> (h, p)
    | Server.Unix_socket path -> (path, 0)
  in
  let m = make_member addr ~host ~port ~weight:1 in
  ignore (ensure_fd m);
  {
    members = [| m |];
    ring = None;
    buf = Bytes.create 16384;
    eject_after = 3;
    rejoin_after = 0.5;
    retries = 0;
    jitter_state = 0x85ebca6b;
  }

let of_servers ?(retries = 2) ?(eject_after = 3) ?(rejoin_after = 0.5) servers =
  if servers = [] then invalid_arg "Binary_client.of_servers: empty server list";
  Io.ignore_sigpipe ();
  let members =
    Array.of_list
      (List.map
         (fun (host, port, weight) ->
           make_member (Server.Inet (host, port)) ~host ~port ~weight)
         servers)
  in
  let ring =
    Rp_cluster.Ring.create
      (List.map
         (fun (host, port, weight) -> { Rp_cluster.Ring.host; port; weight })
         servers)
  in
  {
    members;
    ring = Some ring;
    buf = Bytes.create 16384;
    eject_after = max 1 eject_after;
    rejoin_after;
    retries;
    jitter_state = 0x85ebca6b;
  }

let close t = Array.iter close_member t.members

let ejected m ~now = m.m_ejected_until > now

let next_jitter t =
  (* 48-bit LCG (java.util.Random constants) — fits OCaml's 63-bit int. *)
  t.jitter_state <-
    ((t.jitter_state * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  float_of_int ((t.jitter_state lsr 24) land 0xFFFFFF) /. 16777216.

let note_failure t m =
  close_member m;
  m.m_fails <- m.m_fails + 1;
  if m.m_fails >= t.eject_after then begin
    let over = min (m.m_fails - t.eject_after) 4 in
    let base = t.rejoin_after *. float_of_int (1 lsl over) in
    m.m_ejected_until <- Unix.gettimeofday () +. (base *. (1. +. next_jitter t))
  end

let member_for t key =
  match t.ring with
  | None -> t.members.(0)
  | Some ring -> (
      let now = Unix.gettimeofday () in
      match
        Rp_cluster.Ring.lookup ring ~avoid:(fun i -> ejected t.members.(i) ~now) key
      with
      | Some i -> t.members.(i)
      | None -> (
          match Rp_cluster.Ring.lookup ring key with
          | Some i -> t.members.(i)
          | None -> t.members.(0)))

let admin_member t =
  match t.ring with
  | None -> t.members.(0)
  | Some _ ->
      let now = Unix.gettimeofday () in
      let found = ref None in
      Array.iter
        (fun m -> if !found = None && not (ejected m ~now) then found := Some m)
        t.members;
      (match !found with Some m -> m | None -> t.members.(0))

let rec read_response t m =
  match Response_parser.next m.m_parser with
  | Some (Ok response) -> response
  | Some (Error msg) -> failwith ("Binary_client: protocol error: " ^ msg)
  | None ->
      let fd =
        match m.m_fd with
        | Some fd -> fd
        | None -> failwith "Binary_client: connection closed"
      in
      let n = Io.read fd t.buf in
      if n = 0 then failwith "Binary_client: connection closed";
      Response_parser.feed m.m_parser (Bytes.sub_string t.buf 0 n);
      read_response t m

let make_request ?(key = "") ?(value = "") ?(extras = "") ?(cas = 0) opcode =
  { opcode; key; value; extras; opaque = 0xCAFE; cas }

let retryable = function
  | Unix.Unix_error _ -> true
  | Failure msg -> msg = "Binary_client: connection closed"
  | _ -> false

let request_via pick t req =
  let rec attempt n =
    let m = pick () in
    match
      let fd = ensure_fd m in
      Io.write_all fd (encode_request req);
      read_response t m
    with
    | response ->
        m.m_fails <- 0;
        m.m_ejected_until <- 0.;
        if response.r_opaque <> req.opaque then
          failwith "Binary_client: opaque mismatch";
        response
    | exception e when retryable e && n < t.retries ->
        note_failure t m;
        attempt (n + 1)
    | exception e ->
        if retryable e then note_failure t m;
        raise e
  in
  attempt 0

let request t req =
  let pick =
    if req.key = "" then fun () -> admin_member t
    else fun () -> member_for t req.key
  in
  request_via pick t req

let get t key =
  let r = request t (make_request ~key Get) in
  match r.status with
  | Ok_status ->
      let flags =
        if String.length r.r_extras >= 4 then parse_u32 r.r_extras 0 else 0
      in
      Some (r.r_value, flags)
  | _ -> None

let set t ?(flags = 0) ?(exptime = 0) ?(cas = 0) ~key ~data () =
  let r =
    request t
      (make_request ~key ~value:data ~extras:(set_extras ~flags ~exptime) ~cas Set)
  in
  r.status

let add t ?(flags = 0) ?(exptime = 0) ~key ~data () =
  let r =
    request t (make_request ~key ~value:data ~extras:(set_extras ~flags ~exptime) Add)
  in
  r.status

let delete t key =
  (request t (make_request ~key Delete)).status = Ok_status

let counter t opcode ?(initial = 0) key delta =
  let r =
    request t
      (make_request ~key
         ~extras:(counter_extras ~delta ~initial ~exptime:0)
         opcode)
  in
  match r.status with
  | Ok_status when String.length r.r_value >= 8 -> Some (parse_u64 r.r_value 0)
  | _ -> None

let incr t ?initial key delta = counter t Increment ?initial key delta
let decr t ?initial key delta = counter t Decrement ?initial key delta

let touch t ~key ~exptime =
  (request t (make_request ~key ~extras:(touch_extras ~exptime) Touch)).status
  = Ok_status

let gat t ~key ~exptime =
  let r = request t (make_request ~key ~extras:(touch_extras ~exptime) GAT) in
  match r.status with
  | Ok_status ->
      let flags =
        if String.length r.r_extras >= 4 then parse_u32 r.r_extras 0 else 0
      in
      Some (r.r_value, flags)
  | _ -> None

let version t = (request t (make_request Version)).r_value
let noop t = ignore (request t (make_request Noop))
let flush_all t = ignore (request t (make_request Flush))

let stats ?(key = "") t =
  let m = admin_member t in
  let fd = ensure_fd m in
  Io.write_all fd (encode_request (make_request ~key Stat));
  let rec collect acc =
    let r = read_response t m in
    if r.status <> Ok_status then
      failwith "Binary_client.stats: error status"
    else if r.r_key = "" then List.rev acc
    else collect ((r.r_key, r.r_value) :: acc)
  in
  collect []
