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

type admission = Admit | Shed | Read_only

let admit_mutation store =
  match Store.guard store with
  | Some g when not (Rp_guard.admit_mutation g) ->
      Rp_guard.note_shed g;
      Shed
  | _ ->
      (* A following replica refuses client mutations: its state is the
         leader's, applied through the replication stream only. *)
      if Store.read_only store then Read_only else Admit

let refusal = function
  | Shed -> Protocol.Server_error "overloaded"
  | Read_only -> Protocol.Server_error "replica is read-only"
  | Admit -> invalid_arg "Dispatch.refusal: admitted"

let execute store (request : Protocol.request) : Protocol.response option =
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

let handle store (request : Protocol.request) =
  if sheddable request then
    match admit_mutation store with
    | Admit -> execute store request
    | (Shed | Read_only) as refused ->
        if request_noreply request then None else Some (refusal refused)
  else execute store request

(* A set line read in place by the run scanner: [handle]'s gates, then
   [Store.set_slice] on the line's slices, the reply rendered straight
   into [out]. Every reply here is a constant, so nothing is built. *)
let set_line store ~clock out (run : Protocol.Run.t) l =
  let reply =
    match admit_mutation store with
    | Admit ->
        stored_reply
          (Store.set_slice store ~clock run.keys (Protocol.Run.first_key run l)
             ~flags:(Array.unsafe_get run.flags l) ~exptime:(Array.unsafe_get run.exptimes l)
             ~off:(Array.unsafe_get run.data_offs l) ~len:(Array.unsafe_get run.data_lens l))
    | (Shed | Read_only) as refused -> refusal refused
  in
  match Array.unsafe_get run.kinds l with
  | Protocol.Run.Set_noreply_line -> ()
  | Protocol.Run.Set_line | Protocol.Run.Get_line | Protocol.Run.Gets_line ->
      Protocol.encode_response_into out reply
