(** The {!Store} backend over {!Rp_baseline.Lock_ht} and an exact {!Lru}:
    stock memcached's one global lock, the paper's Figure 5 baseline. *)

val create : Store_core.t -> initial_size:int -> Store_core.backend
