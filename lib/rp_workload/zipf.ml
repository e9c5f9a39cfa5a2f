type t = { n : int; theta : float; cdf : float array }

let create ?(theta = 0.99) ~n () =
  if n <= 0 then invalid_arg "Zipf.create: n <= 0";
  if theta < 0.0 then invalid_arg "Zipf.create: theta < 0";
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  { n; theta; cdf }

let sample t prng =
  let u = Prng.float prng in
  (* First index whose cdf >= u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let pmf t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.pmf: rank out of range";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)
