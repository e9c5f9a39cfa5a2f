exception Disconnected of string

(* One connection endpoint. In single-server mode there is exactly one
   member and no ring; in multi-server mode ([of_servers]) each member
   is a ketama ring node with its own lazy connection, failure count,
   and ejection clock. *)
type member = {
  m_addr : Server.address;
  m_host : string;
  m_port : int;
  m_weight : int;
  mutable m_fd : Unix.file_descr option;
  mutable m_parser : Protocol.Response_parser.t;
  mutable m_fails : int; (* consecutive connection-level failures *)
  mutable m_ejected_until : float; (* 0. = live *)
}

type t = {
  retries : int;
  members : member array;
  ring : Rp_cluster.Ring.t option; (* None = single-server *)
  buf : Bytes.t;
  eject_after : int;
  rejoin_after : float;
  (* Cheap PRNG state for jittering rejoin probes, so a fleet of
     clients doesn't hammer a recovering member in lockstep. *)
  mutable jitter_state : int;
}

let make_member addr ~host ~port ~weight =
  {
    m_addr = addr;
    m_host = host;
    m_port = port;
    m_weight = weight;
    m_fd = None;
    m_parser = Protocol.Response_parser.create ();
    m_fails = 0;
    m_ejected_until = 0.;
  }

let open_fd (addr : Server.address) =
  let domain, sockaddr = Server.sockaddr_of addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let close_member m =
  (match m.m_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  m.m_fd <- None

(* Any half-parsed response from a dead connection is garbage: the
   parser is replaced wholesale whenever the fd is (re)opened. *)
let ensure_fd m =
  match m.m_fd with
  | Some fd -> fd
  | None ->
      let fd = open_fd m.m_addr in
      m.m_parser <- Protocol.Response_parser.create ();
      m.m_fd <- Some fd;
      fd

let connect ?(retries = 0) (addr : Server.address) =
  Io.ignore_sigpipe ();
  let host, port =
    match addr with
    | Server.Tcp p -> ("127.0.0.1", p)
    | Server.Inet (h, p) -> (h, p)
    | Server.Unix_socket path -> (path, 0)
  in
  let m = make_member addr ~host ~port ~weight:1 in
  (* Single-server connect stays eager: callers expect a connection
     failure to surface here, not on the first request. *)
  ignore (ensure_fd m);
  {
    retries;
    members = [| m |];
    ring = None;
    buf = Bytes.create 16384;
    eject_after = 3;
    rejoin_after = 0.5;
    jitter_state = 0x9e3779b9;
  }

let of_servers ?retries ?(eject_after = 3) ?(rejoin_after = 0.5) servers =
  if servers = [] then invalid_arg "Client.of_servers: empty server list";
  let eject_after = max 1 eject_after in
  (* The default budget must cover a whole failover on one op: a dead
     member eats [eject_after] strikes before it leaves the ring, and
     only the attempt after that re-routes to the next live point. *)
  let retries = Option.value retries ~default:(eject_after + 1) in
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
    retries;
    members;
    ring = Some ring;
    buf = Bytes.create 16384;
    eject_after;
    rejoin_after;
    jitter_state = 0x9e3779b9;
  }

let close t = Array.iter close_member t.members

(* --- ejection / rejoin --- *)

let ejected m ~now = m.m_ejected_until > now

let live_members t =
  let now = Unix.gettimeofday () in
  Array.fold_left (fun n m -> if ejected m ~now then n else n + 1) 0 t.members

let next_jitter t =
  (* 48-bit LCG (java.util.Random constants) — fits OCaml's 63-bit int. *)
  t.jitter_state <-
    ((t.jitter_state * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  float_of_int ((t.jitter_state lsr 24) land 0xFFFFFF) /. 16777216.

let note_success m =
  m.m_fails <- 0;
  m.m_ejected_until <- 0.

(* A connection-level failure: drop the socket; after [eject_after]
   consecutive failures the member leaves the ring until a jittered
   rejoin deadline — at which point the next lookup that lands on it is
   the probe. Repeat failures stretch the deadline (capped), so a member
   that stays dead costs one probe per deadline, not per request. *)
let note_failure t m =
  close_member m;
  m.m_fails <- m.m_fails + 1;
  if m.m_fails >= t.eject_after then begin
    let over = min (m.m_fails - t.eject_after) 4 in
    let base = t.rejoin_after *. float_of_int (1 lsl over) in
    m.m_ejected_until <-
      Unix.gettimeofday () +. (base *. (1. +. next_jitter t))
  end

(* --- routing --- *)

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
          (* Everything is ejected: desperation probe at the key's true
             owner rather than failing without trying. *)
          match Rp_cluster.Ring.lookup ring key with
          | Some i -> t.members.(i)
          | None -> t.members.(0)))

(* First live member (admin requests with no key affinity). *)
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

(* --- request plumbing --- *)

let rec read_response t m =
  match Protocol.Response_parser.next m.m_parser with
  | Some (Ok response) -> response
  | Some (Error msg) -> failwith ("Memcached.Client: protocol error: " ^ msg)
  | None ->
      let fd =
        match m.m_fd with
        | Some fd -> fd
        | None -> raise (Disconnected "connection closed")
      in
      let n = Io.read fd t.buf in
      if n = 0 then raise (Disconnected "connection closed by server");
      Protocol.Response_parser.feed m.m_parser (Bytes.sub_string t.buf 0 n);
      read_response t m

(* Connection-level failures worth a reconnect; protocol garbage is not. *)
let retryable = function
  | Disconnected _ -> true
  | Unix.Unix_error
      ( ( Unix.ECONNRESET | Unix.ECONNREFUSED | Unix.ECONNABORTED | Unix.EPIPE
        | Unix.ENOTCONN | Unix.ENOENT | Unix.EBADF | Unix.ETIMEDOUT
        | Unix.EHOSTUNREACH ),
        _,
        _ ) ->
      true
  | _ -> false

let attempt_on t m req =
  let fd = ensure_fd m in
  Io.write_all ~fault:"client.write.partial" fd (Protocol.encode_request req);
  let r = read_response t m in
  note_success m;
  r

(* Retrying re-sends the request verbatim, so a non-idempotent command may
   execute twice when the failure hit after the server applied it — the
   standard at-least-once caveat of any reconnecting cache client. In
   multi-server mode each retry re-routes: a failure ejects the member
   (after [eject_after] strikes), so the key's ownership slides to the
   next live ring point and the retry becomes the failover. *)
let request_via pick t req =
  let backoff = Rp_sync.Backoff.create ~max_wait:256 () in
  let rec attempt n =
    let m = pick () in
    match attempt_on t m req with
    | response -> response
    | exception e when retryable e && n < t.retries ->
        note_failure t m;
        Unix.sleepf (float_of_int (Rp_sync.Backoff.current backoff) *. 1e-4);
        Rp_sync.Backoff.once backoff;
        attempt (n + 1)
    | exception e ->
        if retryable e then note_failure t m;
        raise e
  in
  attempt 0

let request t req = request_via (fun () -> admin_member t) t req
let request_for t key req = request_via (fun () -> member_for t key) t req

(* --- commands --- *)

let get t key =
  match request_for t key (Protocol.Get [ key ]) with
  | Protocol.Values [ v ] -> Some v
  | Protocol.Values [] -> None
  | _ -> failwith "Memcached.Client.get: unexpected response"

(* Multi-get groups keys by ring owner and issues one pipelinable Get
   per member; a group whose member fails over re-routes whole (by its
   first key), which at-least preserves one-request-per-group. Order of
   the returned values follows the per-group responses, not the request
   keys — same as memcached semantics (callers match on [vkey]). *)
let get_many t keys =
  let collect req =
    match request_for t (match keys with k :: _ -> k | [] -> "") req with
    | Protocol.Values vs -> vs
    | _ -> failwith "Memcached.Client.get_many: unexpected response"
  in
  match t.ring with
  | None -> if keys = [] then [] else collect (Protocol.Get keys)
  | Some _ ->
      let groups = Hashtbl.create 8 in
      List.iter
        (fun key ->
          let m = member_for t key in
          let cur = try Hashtbl.find groups m.m_host with Not_found -> [] in
          Hashtbl.replace groups
            m.m_host
            (* group label only; routing re-derives from the first key *)
            (key :: cur))
        keys;
      Hashtbl.fold
        (fun _ group acc ->
          let group = List.rev group in
          match
            request_for t (List.hd group) (Protocol.Get group)
          with
          | Protocol.Values vs -> vs @ acc
          | _ -> failwith "Memcached.Client.get_many: unexpected response")
        groups []

let gets t key =
  match request_for t key (Protocol.Gets [ key ]) with
  | Protocol.Values [ v ] -> Some v
  | Protocol.Values [] -> None
  | _ -> failwith "Memcached.Client.gets: unexpected response"

let storage_request t build ?(flags = 0) ?(exptime = 0) ~key ~data () =
  let s : Protocol.storage = { key; flags; exptime; noreply = false; data } in
  match request_for t key (build s) with
  | Protocol.Stored -> true
  | Protocol.Not_stored | Protocol.Exists | Protocol.Not_found -> false
  | _ -> failwith "Memcached.Client: unexpected storage response"

let set t = storage_request t (fun s -> Protocol.Set s)
let add t = storage_request t (fun s -> Protocol.Add s)

(* Overload-aware storage: surfaces guard shedding ([SERVER_ERROR
   overloaded]) as a value instead of an exception, so storm/bench
   workers can count sheds and carry on. *)
let try_set t ?(flags = 0) ?(exptime = 0) ~key ~data () =
  let s : Protocol.storage = { key; flags; exptime; noreply = false; data } in
  match request_for t key (Protocol.Set s) with
  | Protocol.Stored -> `Stored
  | Protocol.Not_stored | Protocol.Exists | Protocol.Not_found -> `Not_stored
  | Protocol.Server_error msg -> `Overloaded msg
  | _ -> failwith "Memcached.Client.try_set: unexpected storage response"

let cas t ?(flags = 0) ?(exptime = 0) ~key ~data ~unique () =
  request_for t key
    (Protocol.Cas ({ key; flags; exptime; noreply = false; data }, unique))

let delete t key =
  match request_for t key (Protocol.Delete { key; noreply = false }) with
  | Protocol.Deleted -> true
  | Protocol.Not_found -> false
  | _ -> failwith "Memcached.Client.delete: unexpected response"

let counter t key req =
  match request_for t key req with
  | Protocol.Number n -> Some n
  | Protocol.Not_found -> None
  | Protocol.Client_error _ -> None
  | _ -> failwith "Memcached.Client: unexpected counter response"

let incr t key delta =
  counter t key (Protocol.Incr { key; delta; noreply = false })

let decr t key delta =
  counter t key (Protocol.Decr { key; delta; noreply = false })

let touch t ~key ~exptime =
  match request_for t key (Protocol.Touch { key; exptime; noreply = false }) with
  | Protocol.Touched -> true
  | Protocol.Not_found -> false
  | _ -> failwith "Memcached.Client.touch: unexpected response"

let stats ?arg t =
  match request t (Protocol.Stats arg) with
  | Protocol.Stats_reply kvs -> kvs
  | _ -> failwith "Memcached.Client.stats: unexpected response"

let version t =
  match request t Protocol.Version with
  | Protocol.Version_reply v -> v
  | _ -> failwith "Memcached.Client.version: unexpected response"

let promote t =
  match request t Protocol.Cluster_promote with
  | Protocol.Ok_reply -> Ok ()
  | Protocol.Server_error msg -> Error msg
  | _ -> failwith "Memcached.Client.promote: unexpected response"

(* flush_all touches every member's keyspace: broadcast to each live
   member (ejected members are skipped — they will be flushed by their
   own operator story; a cache flush is advisory, not transactional). *)
let flush_all t =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun m ->
      if not (ejected m ~now) then
        match request_via (fun () -> m) t (Protocol.Flush_all { noreply = false }) with
        | Protocol.Ok_reply -> ()
        | _ -> failwith "Memcached.Client.flush_all: unexpected response")
    t.members
