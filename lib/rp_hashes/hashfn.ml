(* 64-bit mixing constants don't fit OCaml's 63-bit int literals; convert
   from Int64, which truncates modulo 2^63. The avalanche quality on the low
   bits — all that bucket masking consumes — is preserved. *)

let mask63 = max_int
let k_mix1 = Int64.to_int 0x9E3779B97F4A7C15L
let k_mix2 = Int64.to_int 0xBF58476D1CE4E5B9L
let k_mix3 = Int64.to_int 0x94D049BB133111EBL
let fnv_offset = Int64.to_int 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3

let splitmix64 x =
  let x = x * k_mix1 in
  let x = (x lxor (x lsr 30)) * k_mix2 in
  let x = (x lxor (x lsr 27)) * k_mix3 in
  (x lxor (x lsr 31)) land mask63

(* Direct loops, not a fold over a [get] closure: the string hash runs on
   every store lookup, where a partial application would allocate and
   make an indirect call per byte. *)
let fnv1a_string s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  splitmix64 !h

let fnv1a_bytes b = fnv1a_string (Bytes.unsafe_to_string b)

let jenkins_string s =
  let h = ref 0 in
  String.iter
    (fun c ->
      h := !h + Char.code c;
      h := !h + (!h lsl 10);
      h := !h lxor (!h lsr 6))
    s;
  h := !h + (!h lsl 3);
  h := !h lxor (!h lsr 11);
  h := !h + (!h lsl 15);
  !h land mask63

let combine a b = splitmix64 (a lxor (b + k_mix1 + (a lsl 6) + (a lsr 2)))
let of_int = splitmix64
