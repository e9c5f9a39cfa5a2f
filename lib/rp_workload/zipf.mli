(** Zipfian key-popularity distribution.

    Real caches (the memcached experiment's domain) see highly skewed key
    popularity; a Zipf sampler with exponent [theta] produces rank [r] with
    probability proportional to [1 / r^theta]. Sampling is O(log n) by
    binary search over the precomputed CDF. *)

type t

val create : ?theta:float -> n:int -> unit -> t
(** [create ~n ()] prepares a sampler over ranks [0 .. n-1] with exponent
    [theta] (default 0.99, the YCSB convention). Raises [Invalid_argument]
    if [n <= 0] or [theta < 0]. *)

val sample : t -> Prng.t -> int
(** Draw a rank in [\[0, n)]; rank 0 is the most popular. *)

val pmf : t -> int -> float
(** Probability of rank [i] (tests). *)
