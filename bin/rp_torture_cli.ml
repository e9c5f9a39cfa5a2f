(* rcutorture-style stress CLI: exit 0 on a clean run, 1 on any violation. *)

open Cmdliner

let table_arg =
  let doc =
    "Implementation under test: " ^ String.concat ", " Rp_torture.Torture.table_names
  in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) Rp_torture.Torture.table_names)) "rp"
    & info [ "table" ] ~docv:"TABLE" ~doc)

let scenario_arg =
  let doc =
    "Fault scenario: " ^ String.concat ", " Rp_torture.Torture.scenario_names
    ^ ". These require --table rp: "
    ^ String.concat ", " Rp_torture.Torture.rp_only_scenarios
    ^ "."
  in
  Arg.(
    value
    & opt
        (enum (List.map (fun n -> (n, n)) Rp_torture.Torture.scenario_names))
        "steady"
    & info [ "scenario" ] ~docv:"SCENARIO" ~doc)

let duration_arg =
  Arg.(value & opt float 2.0 & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc:"Run time.")

let readers_arg =
  Arg.(value & opt int 2 & info [ "readers" ] ~docv:"N" ~doc:"Oracle reader domains.")

let writers_arg =
  Arg.(value & opt int 1 & info [ "writers" ] ~docv:"N" ~doc:"Churn writer domains.")

let resizers_arg =
  Arg.(value & opt int 1 & info [ "resizers" ] ~docv:"N" ~doc:"Resize-flipping domains.")

let resident_arg =
  Arg.(value & opt int 1024 & info [ "resident" ] ~docv:"N" ~doc:"Always-present keys.")

let churn_arg =
  Arg.(value & opt int 512 & info [ "churn" ] ~docv:"N" ~doc:"Churned keyspace size.")

let faults_arg =
  Arg.(value & flag & info [ "faults" ] ~doc:"Inject random microsecond stalls.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let run table scenario duration readers writers resizers resident churn faults seed =
  let config =
    {
      Rp_torture.Torture.default_config with
      table;
      scenario;
      duration;
      readers;
      writers;
      resizers = (if table = "rp-fixed" then 0 else resizers);
      resident_keys = resident;
      churn_keys = churn;
      fault_injection = faults;
      seed;
    }
  in
  Printf.printf
    "torturing %s (%s) for %.1fs: %d readers, %d writers, %d resizers%s\n%!"
    table scenario duration readers writers config.resizers
    (if faults then " (+fault injection)" else "");
  let report = Rp_torture.Torture.run config in
  Format.printf "%a@." Rp_torture.Torture.pp_report report;
  if Rp_torture.Torture.violations report > 0 then exit 1

let cmd =
  let doc = "stress-test the relativistic hash table and its baselines" in
  Cmd.v (Cmd.info "rp_torture" ~doc)
    Term.(
      const run $ table_arg $ scenario_arg $ duration_arg $ readers_arg $ writers_arg
      $ resizers_arg $ resident_arg $ churn_arg $ faults_arg $ seed_arg)

let () = exit (Cmd.eval cmd)
