(** The {!Store} backend over {!Rp_ht}: wait-free GETs, per-key update
    stripes (a waiter goes offline under QSBR), CLOCK eviction with cold-tier
    demotion, and promote-on-access. *)

val batch_keys : int
(** The most keys one multiget read section serves (see
    {!Store.batch_keys}). *)

val create :
  Store_core.t ->
  rcu_mode:Store_core.rcu_mode ->
  initial_size:int ->
  auto_resize:bool ->
  stripes:int ->
  Store_core.backend
