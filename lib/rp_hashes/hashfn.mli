(** Hash functions used by the table implementations.

    All functions return non-negative OCaml [int]s (63-bit). Bucket selection
    masks the low bits, so good low-bit diffusion matters; every function
    here finishes with an avalanche step. *)

val splitmix64 : int -> int
(** Finalizer of the SplitMix64 generator: a strong avalanche permutation on
    63-bit ints. Good default for integer keys. *)

val fnv1a_string : string -> int
(** FNV-1a over the bytes of a string, post-mixed with {!splitmix64}. *)

val fnv_offset : int
val fnv_prime : int
(** {!fnv1a_string} spelled out, for a scan that hashes a key in the
    pass that finds its end: from [h = fnv_offset], each byte [c] sets
    [h] to [(h lxor Char.code c) * fnv_prime], and {!splitmix64} of the
    last [h] is [fnv1a_string] of the bytes. *)

val fnv1a_bytes : bytes -> int
(** FNV-1a over a [bytes] value, post-mixed with {!splitmix64}. *)

val jenkins_string : string -> int
(** Bob Jenkins' one-at-a-time hash over a string (non-negative). *)

val combine : int -> int -> int
(** Mix two hash values into one (boost-style combine, then avalanche). *)

val of_int : int -> int
(** Alias for {!splitmix64}; hash an integer key. *)
