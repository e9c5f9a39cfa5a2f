(* Benchmark programs, one per subcommand:
   - gen: drive a running server over its Unix socket (set-up, then an
     optional measured window);
   - table: the in-process table workload;
   - ledger: the traced run's in-process layer stages. *)

let () =
  let workload = ref "" and socket = ref "" and seed = ref 1 in
  let seconds = ref 10. and server_pid = ref 0 and memory_mb = ref 64 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--socket", Arg.Set_string socket, "PATH server socket");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--server-pid", Arg.Set_int server_pid, "PID server process");
      ("--memory-mb", Arg.Set_int memory_mb, "MB cache budget of the in-process stores");
    ]
  in
  let cmd = ref "" in
  Arg.parse specs (fun s -> cmd := s) "pb (gen|table|ledger) [options]";
  match !cmd with
  | "gen" ->
      Gen.main ~workload:!workload ~socket:!socket ~seed:!seed ~seconds:!seconds
        ~server_pid:!server_pid
  | "table" -> Table.main ~workload:!workload ~seed:!seed ~seconds:!seconds
  | "ledger" ->
      Ledger.main ~workload:!workload ~seed:!seed ~seconds:!seconds ~memory_mb:!memory_mb
  | c ->
      prerr_endline ("pb: unknown command " ^ c);
      exit 2
