(* Tests of the benchmark itself, at tiny sizes: every workload runs
   in both modes and prints every metric of BENCHMARK.json with its
   unit, and the correctness checks fire on corrupted results. *)

open Perfbench
module Json = Gossip_util.Json

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let field j name = match j with Json.Obj fs -> List.assoc name fs | _ -> raise Not_found
let string_field j name = match field j name with Json.String s -> s | _ -> raise Not_found
let list_field j name = match field j name with Json.List l -> l | _ -> raise Not_found

(* BENCHMARK.json and the program agree on workloads, metrics and units.
   The program runs one workload more than BENCHMARK.json gates on;
   README.md says why. *)
let test_contract () =
  let j =
    match Json.of_string (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith e
  in
  let pairs key = List.map (fun m -> (string_field m "name", string_field m "unit")) (list_field j key) in
  check "end_to_end metrics match" (pairs "end_to_end" = Workloads.end_to_end);
  check "per_layer metrics match" (pairs "per_layer" = Workloads.per_layer);
  check "BENCHMARK.json names only workloads the program runs"
    (List.for_all
       (fun w -> List.mem_assoc (string_field w "name") Workloads.workloads)
       (list_field j "workloads"))

let dir = "perfbench-test-run"

let config ?(corrupt = Fun.id) ~trace workload =
  {
    Workloads.workload;
    seed = 3;
    seconds = 1.0;
    trace;
    sizes = Workloads.tiny;
    scenario = "gossipd_churn.json";
    dir;
    corrupt;
  }

(* Every workload runs cleanly in both modes, prints each metric once
   in the declared order, and the result line parses back. *)
let test_workloads () =
  List.iter
    (fun (name, w) ->
      List.iter
        (fun trace ->
          let what = Printf.sprintf "%s trace=%b" name trace in
          let o = Workloads.run (config ~trace w) in
          check (what ^ ": no failures") (o.ledger.failed = 0 && o.ledger.attempted > 0);
          let expected = if trace then Workloads.per_layer else Workloads.end_to_end in
          check (what ^ ": metric names and units")
            (List.map (fun m -> (m.Report.name, m.Report.unit_)) o.metrics = expected);
          check (what ^ ": finite values")
            (List.for_all (fun m -> Float.is_finite m.Report.value) o.metrics);
          if not trace then
            check (what ^ ": end-to-end metrics are positive")
              (List.for_all (fun m -> m.Report.value > 0.0) o.metrics);
          let line =
            Report.result ~correct:true ~attempted:o.ledger.attempted ~failed:o.ledger.failed
              o.metrics
          in
          match Json.of_string line with
          | Ok j ->
              check (what ^ ": result keys")
                (List.map fst (match j with Json.Obj fs -> fs | _ -> [])
                = [ "correct"; "attempted"; "failed"; "metrics" ])
          | Error e -> check (what ^ ": result parses: " ^ e) false)
        [ false; true ])
    Workloads.workloads

let verified ~n s = Result.is_ok (Replay.verify ~n s)

(* The checks reject each kind of corrupted result. *)
let test_checks_fire () =
  let job = Workloads.ba_job 500 ~seed:4 Gossip_scale.Wheel_engine.Push_pull in
  let p = Replay.prepare job in
  let n = Gossip_scale.Csr.n p.Replay.csr in
  let s = Replay.summarize (Replay.broadcast p) in
  check "a clean result passes" (verified ~n s);
  check "capped run rejected" (not (verified ~n { s with Replay.rounds = None }));
  let missing = Bytes.copy s.Replay.completed in
  Bytes.set missing (n / 2) '\000';
  check "uninformed node rejected" (not (verified ~n { s with Replay.completed = missing }));
  check "excess deliveries rejected"
    (not (verified ~n { s with Replay.deliveries = (2 * s.Replay.initiations) + 1 }));
  check "differing replay rejected"
    (Result.is_error (Replay.same ~what:"x" s { s with Replay.completed = missing }));
  let o = Gossip_sweep.Sweep.run_job job in
  check "Sweep.run_job matches the replay" (Result.is_ok (Replay.same_outcome o s));
  check "a differing outcome rejected"
    (Result.is_error (Replay.same_outcome o { s with Replay.deliveries = s.Replay.deliveries + 1 }));
  let row ?(rounds = Json.Int 9) ?(deliveries = 10) ?(n = 100) () =
    Json.Obj
      [
        ("n", Json.Int n);
        ("rounds", rounds);
        ("initiations", Json.Int 5);
        ("deliveries", Json.Int deliveries);
        ("elapsed_s", Json.Float 0.5);
      ]
  in
  let status state =
    Some
      {
        Gossip_serve.Protocol.s_job = "job-1";
        s_state = state;
        s_trials = 1;
        s_completed = 1;
        s_failed = 0;
        s_position = None;
      }
  in
  let finished ?(state = Gossip_serve.Protocol.Done) r =
    {
      Daemon.kind = 0;
      t_submit = 0.0;
      t_first_progress = nan;
      t_done = 1.0;
      status = status state;
      rows = [ r ];
    }
  in
  let ok f = Result.is_ok (Daemon.check ~n:100 f) in
  check "a clean daemon row passes" (ok (finished (row ())));
  check "capped daemon job rejected" (not (ok (finished (row ~rounds:Json.Null ()))));
  check "daemon excess deliveries rejected" (not (ok (finished (row ~deliveries:11 ()))));
  check "daemon wrong graph size rejected" (not (ok (finished (row ~n:99 ()))));
  check "failed daemon job rejected"
    (not (ok (finished ~state:Gossip_serve.Protocol.Failed (row ()))))

(* A corrupted engine result fails the run: it is counted against the
   jobs attempted, in both modes. *)
let test_corrupted_run () =
  let drop_one s =
    let c = Bytes.copy s.Replay.completed in
    Bytes.set c 0 '\000';
    { s with Replay.completed = c }
  in
  List.iter
    (fun trace ->
      let o = Workloads.run (config ~corrupt:drop_one ~trace Workloads.Rrspanner_ba_2dom) in
      check
        (Printf.sprintf "corrupted run fails (trace=%b)" trace)
        (o.ledger.failed > 0 && o.ledger.failed <= o.ledger.attempted))
    [ false; true ];
  (* Only the second engine result, the first rerun, is altered. *)
  let calls = ref 0 in
  let second_differs s =
    incr calls;
    if !calls = 2 then { s with Replay.deliveries = s.Replay.deliveries - 1 } else s
  in
  let o = Workloads.run (config ~corrupt:second_differs ~trace:false Workloads.Pushpull_ba_seq) in
  check "differing engine rerun fails the run" (o.ledger.failed > 0)

let () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  test_contract ();
  test_checks_fire ();
  test_corrupted_run ();
  test_workloads ();
  if !failures > 0 then begin
    Printf.printf "%d perfbench checks failed\n" !failures;
    exit 1
  end;
  print_endline "perfbench tests passed"
