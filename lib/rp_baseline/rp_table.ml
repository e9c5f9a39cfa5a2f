(** Adapters exposing the paper's table, and a frozen variant, through the
    common {!Table_intf.TABLE} benchmark signature. *)

(** The resizable relativistic table (auto-resize off: benches drive size). *)
module Resizable = struct
  type ('k, 'v) t = ('k, 'v) Rp_ht.t

  let name = "rp"

  let create ~hash ~equal ~size () =
    Rp_ht.create ~initial_size:size ~auto_resize:false ~hash ~equal ()

  let find = Rp_ht.find
  let insert = Rp_ht.replace
  let remove = Rp_ht.remove
  let resize = Rp_ht.resize
  let size = Rp_ht.size
  let length = Rp_ht.length
  let reader_exit t = Rcu.offline_current (Rp_ht.rcu t)
end

(** The same table with resizing forbidden — the paper's fixed-size
    baseline curves (8k / 16k). *)
module Fixed = struct
  type ('k, 'v) t = ('k, 'v) Rp_ht.t

  let name = "rp-fixed"

  let create ~hash ~equal ~size () =
    Rp_ht.create ~initial_size:size ~auto_resize:false ~hash ~equal ()

  let find = Rp_ht.find
  let insert = Rp_ht.replace
  let remove = Rp_ht.remove

  let resize _ _ =
    invalid_arg "Rp_table.Fixed.resize: fixed-size table cannot resize"

  let size = Rp_ht.size
  let length = Rp_ht.length
  let reader_exit t = Rcu.offline_current (Rp_ht.rcu t)
end

(** The same table running on QSBR RCU: zero-cost readers, matching the
    paper's kernel-RCU setting. Callers must respect QSBR's rule that
    participating domains never block indefinitely while online (a reader
    announces a quiescent state by itself every 64 read sections). *)
module Qsbr = struct
  type ('k, 'v) t = ('k, 'v) Rp_ht.t

  let name = "rp-qsbr"

  let create ~hash ~equal ~size () =
    Rp_ht.create ~rcu:(Rcu.create ~mode:Qsbr ()) ~initial_size:size ~auto_resize:false
      ~hash ~equal ()

  let find = Rp_ht.find
  let insert = Rp_ht.replace
  let remove = Rp_ht.remove
  let resize = Rp_ht.resize
  let size = Rp_ht.size
  let length = Rp_ht.length
  let reader_exit t = Rcu.offline_current (Rp_ht.rcu t)
end
