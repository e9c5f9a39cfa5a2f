type outcome = { per_worker_ops : int array; elapsed : float }

let now () = Unix.gettimeofday ()

let run ~duration ~workers () =
  let n = Array.length workers in
  if n = 0 then invalid_arg "Runner.run: no workers";
  let stop = Atomic.make false in
  let barrier = Rp_sync.Barrier_sync.create (n + 1) in
  let domains =
    Array.map
      (fun worker ->
        Domain.spawn (fun () ->
            Rp_sync.Barrier_sync.await barrier;
            worker ~stop))
      workers
  in
  Rp_sync.Barrier_sync.await barrier;
  let started = now () in
  Unix.sleepf duration;
  Atomic.set stop true;
  (* Join every domain before re-raising, so a caller's teardown never
     runs while another worker still uses the resource. *)
  let results =
    Array.map
      (fun d ->
        match Domain.join d with
        | ops -> Ok ops
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      domains
  in
  let elapsed = now () -. started in
  let per_worker_ops =
    Array.map
      (function Ok ops -> ops | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      results
  in
  { per_worker_ops; elapsed }

let total_ops outcome = Array.fold_left ( + ) 0 outcome.per_worker_ops

let throughput outcome =
  if outcome.elapsed <= 0.0 then 0.0
  else float_of_int (total_ops outcome) /. outcome.elapsed

let loop_until_stop ~stop ~f =
  let ops = ref 0 in
  while not (Atomic.get stop) do
    f ();
    incr ops
  done;
  !ops

let loop_batched ~stop ~batch ~f =
  if batch < 1 then invalid_arg "Runner.loop_batched: batch < 1";
  let ops = ref 0 in
  while not (Atomic.get stop) do
    for _ = 1 to batch do
      f ()
    done;
    ops := !ops + batch
  done;
  !ops
