(* The benchmark's one command:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints its measurements as it goes and ends standard output with one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits 1
   when any job fails or any check fails. *)

open Perfbench

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

(* Run from the root of a checkout: the gossipd-churn scenario is the
   one kept beside this file, and the daemon's socket and journal go to
   a scratch directory there. *)
let scenario = "perfbench/gossipd_churn.json"
let dir = ".perfbench-run"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_int seconds, "S how long the run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let workload =
    match List.assoc_opt !workload Workloads.workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload; one of: " ^ String.concat ", " (List.map fst Workloads.workloads));
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let o =
    Workloads.run
      {
        Workloads.workload;
        seed = !seed;
        seconds = float_of_int !seconds;
        trace = !trace = 1;
        sizes = Workloads.full;
        scenario;
        dir;
        corrupt = Fun.id;
      }
  in
  let correct = o.ledger.failed = 0 && o.ledger.attempted > 0 in
  print_endline
    (Report.result ~correct ~attempted:o.ledger.attempted ~failed:o.ledger.failed o.metrics);
  exit (if correct then 0 else 1)
