(* Text-protocol request dispatch, shared by the event-loop workers and
   the in-process benchmark loopback. *)

let stored_reply : Store.stored_result -> Protocol.response = function
  | Store.Stored -> Protocol.Stored
  | Store.Not_stored -> Protocol.Not_stored
  | Store.Exists -> Protocol.Exists
  | Store.Not_found -> Protocol.Not_found
  | Store.Too_large -> Protocol.Server_error "object too large for cache"

(* Load shedding: mutations are fast-failed here — before the writer
   lock, before the op log — while GETs ride the wait-free read path no
   matter how deep the overload. Shed noreply mutations die silently
   (the protocol has no error channel for them). *)
let sheddable : Protocol.request -> bool = function
  | Protocol.Set _ | Protocol.Add _ | Protocol.Replace _ | Protocol.Append _
  | Protocol.Prepend _ | Protocol.Cas _ | Protocol.Delete _ | Protocol.Incr _
  | Protocol.Decr _ | Protocol.Touch _ | Protocol.Flush_all _ ->
      true
  | Protocol.Get _ | Protocol.Gets _ | Protocol.Stats _
  | Protocol.Trace_dump _ | Protocol.Heat_dump _ | Protocol.Cluster_promote
  | Protocol.Version | Protocol.Quit ->
      false

let request_noreply : Protocol.request -> bool = function
  | Protocol.Set { noreply; _ }
  | Protocol.Add { noreply; _ }
  | Protocol.Replace { noreply; _ }
  | Protocol.Append { noreply; _ }
  | Protocol.Prepend { noreply; _ }
  | Protocol.Cas ({ noreply; _ }, _)
  | Protocol.Delete { noreply; _ }
  | Protocol.Incr { noreply; _ }
  | Protocol.Decr { noreply; _ }
  | Protocol.Touch { noreply; _ }
  | Protocol.Flush_all { noreply } ->
      noreply
  | _ -> false

let shed store (request : Protocol.request) =
  match Store.guard store with
  | Some g when sheddable request && not (Rp_guard.admit_mutation g) ->
      Rp_guard.note_shed g;
      true
  | _ -> false

let handle store (request : Protocol.request) : Protocol.response option =
  if shed store request then
    if request_noreply request then None
    else Some (Protocol.Server_error "overloaded")
  else if Store.read_only store && sheddable request then
    (* A following replica refuses client mutations: its state is the
       leader's, applied through the replication stream only. *)
    if request_noreply request then None
    else Some (Protocol.Server_error "replica is read-only")
  else
  match request with
  | Protocol.Get keys -> Some (Protocol.Values (Store.get_many store ~with_cas:false keys))
  | Protocol.Gets keys -> Some (Protocol.Values (Store.get_many store ~with_cas:true keys))
  | Protocol.Set { key; flags; exptime; noreply; data } ->
      let r = Store.set store ~key ~flags ~exptime ~data in
      if noreply then None else Some (stored_reply r)
  | Protocol.Add { key; flags; exptime; noreply; data } ->
      let r = Store.add store ~key ~flags ~exptime ~data in
      if noreply then None else Some (stored_reply r)
  | Protocol.Replace { key; flags; exptime; noreply; data } ->
      let r = Store.replace store ~key ~flags ~exptime ~data in
      if noreply then None else Some (stored_reply r)
  | Protocol.Append { key; noreply; data; _ } ->
      let r = Store.append store ~key ~data in
      if noreply then None else Some (stored_reply r)
  | Protocol.Prepend { key; noreply; data; _ } ->
      let r = Store.prepend store ~key ~data in
      if noreply then None else Some (stored_reply r)
  | Protocol.Cas ({ key; flags; exptime; noreply; data }, unique) ->
      let r = Store.cas store ~key ~flags ~exptime ~data ~unique in
      if noreply then None else Some (stored_reply r)
  | Protocol.Delete { key; noreply } ->
      let r = if Store.delete store key then Protocol.Deleted else Protocol.Not_found in
      if noreply then None else Some r
  | Protocol.Incr { key; delta; noreply } -> (
      match Store.incr store key delta with
      | Store.Cvalue n -> if noreply then None else Some (Protocol.Number n)
      | Store.Cnotfound -> if noreply then None else Some Protocol.Not_found
      | Store.Cnon_numeric ->
          if noreply then None
          else
            Some
              (Protocol.Client_error
                 "cannot increment or decrement non-numeric value"))
  | Protocol.Decr { key; delta; noreply } -> (
      match Store.decr store key delta with
      | Store.Cvalue n -> if noreply then None else Some (Protocol.Number n)
      | Store.Cnotfound -> if noreply then None else Some Protocol.Not_found
      | Store.Cnon_numeric ->
          if noreply then None
          else
            Some
              (Protocol.Client_error
                 "cannot increment or decrement non-numeric value"))
  | Protocol.Touch { key; exptime; noreply } ->
      let r =
        if Store.touch store ~key ~exptime then Protocol.Touched
        else Protocol.Not_found
      in
      if noreply then None else Some r
  | Protocol.Stats arg -> (
      let name = Option.value arg ~default:"" in
      match Store.stats_section store name with
      | Some lines -> Some (Protocol.Stats_reply lines)
      | None -> Some (Protocol.Client_error ("unknown stats argument: " ^ name)))
  | Protocol.Trace_dump max_events ->
      Some (Protocol.Trace_json (Rp_trace.export_json ?max_events ()))
  | Protocol.Heat_dump n -> Some (Protocol.Trace_json (Store.heat_json ?n store))
  | Protocol.Cluster_promote -> (
      match Store.promote store with
      | Ok _ -> Some Protocol.Ok_reply
      | Error msg -> Some (Protocol.Server_error msg))
  | Protocol.Flush_all { noreply } ->
      Store.flush_all store;
      if noreply then None else Some Protocol.Ok_reply
  | Protocol.Version -> Some (Protocol.Version_reply Version.string)
  | Protocol.Quit -> None
