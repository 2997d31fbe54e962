(* Tests for fault injection, the robustness runners, and the bounded
   in-degree model (Section 7 extensions). *)

module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Gen = Gossip_graph.Gen
module Engine = Gossip_sim.Engine
module Robustness = Gossip_core.Robustness
module Spanner = Gossip_core.Spanner

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Plans *)

let test_crash_fraction_counts () =
  let plan =
    Robustness.crash_fraction (Rng.of_int 1) ~n:20 ~fraction:0.25 ~from_round:5 ~protect:[ 0 ]
  in
  let crashed_at round =
    let c = ref 0 in
    for v = 0 to 19 do
      if not (plan.Engine.alive ~node:v ~round) then incr c
    done;
    !c
  in
  checki "none before from_round" 0 (crashed_at 4);
  checki "five crashed after" 5 (crashed_at 5);
  checkb "protected node alive" true (plan.Engine.alive ~node:0 ~round:100)

let test_crash_fraction_rounds_to_nearest () =
  (* 0.15 of 10 nodes is 1.5: truncation crashed 1, rounding crashes 2.
     This is the regression test for the int_of_float truncation bug. *)
  let plan =
    Robustness.crash_fraction (Rng.of_int 6) ~n:10 ~fraction:0.15 ~from_round:0 ~protect:[]
  in
  let c = ref 0 in
  for v = 0 to 9 do
    if not (plan.Engine.alive ~node:v ~round:0) then incr c
  done;
  checki "1.5 victims round to 2" 2 !c;
  (* 0.04 of 10 is 0.4: rounds to zero, nobody crashes. *)
  let plan0 =
    Robustness.crash_fraction (Rng.of_int 6) ~n:10 ~fraction:0.04 ~from_round:0 ~protect:[]
  in
  for v = 0 to 9 do
    checkb "0.4 victims round to 0" true (plan0.Engine.alive ~node:v ~round:0)
  done

let test_crash_fraction_skipped_surfaced () =
  (* Everyone protected: the full quota goes unplaced, and the plan
     says so instead of silently crashing nobody. *)
  let skipped = ref (-1) in
  let protect = List.init 10 Fun.id in
  let plan =
    Robustness.crash_fraction ~skipped (Rng.of_int 7) ~n:10 ~fraction:0.5 ~from_round:0
      ~protect
  in
  checki "all five victims skipped" 5 !skipped;
  for v = 0 to 9 do
    checkb "nobody crashed" true (plan.Engine.alive ~node:v ~round:0)
  done;
  (* Unconstrained quota: skipped reports zero. *)
  let skipped2 = ref (-1) in
  ignore
    (Robustness.crash_fraction ~skipped:skipped2 (Rng.of_int 8) ~n:10 ~fraction:0.5
       ~from_round:0 ~protect:[]);
  checki "full quota placed" 0 !skipped2

let test_crash_fraction_validation () =
  Alcotest.check_raises "fraction 1.0"
    (Invalid_argument "Robustness.crash_fraction: fraction out of [0,1)") (fun () ->
      ignore
        (Robustness.crash_fraction (Rng.of_int 1) ~n:4 ~fraction:1.0 ~from_round:0 ~protect:[]))

let test_drop_rate_extremes () =
  let never = Robustness.drop_rate (Rng.of_int 2) ~rate:0.0 in
  for round = 0 to 50 do
    checkb "rate 0 never drops" false (never.Engine.drop ~initiator:0 ~responder:1 ~round)
  done

let test_jitter_bounds () =
  let plan = Robustness.jitter_up_to (Rng.of_int 3) ~extra:4 in
  for round = 0 to 200 do
    let l = plan.Engine.jitter ~latency:7 ~round in
    checkb "within [7, 11]" true (l >= 7 && l <= 11)
  done

let test_combine () =
  let a =
    Robustness.crash_fraction (Rng.of_int 4) ~n:10 ~fraction:0.3 ~from_round:0 ~protect:[ 0 ]
  in
  let b = Robustness.jitter_up_to (Rng.of_int 5) ~extra:2 in
  let c = Robustness.combine [ a; b ] in
  checkb "alive intersects" true (c.Engine.alive ~node:0 ~round:10);
  let some_dead = ref false in
  for v = 0 to 9 do
    if not (c.Engine.alive ~node:v ~round:10) then some_dead := true
  done;
  checkb "crashes propagate" true !some_dead;
  checkb "jitter composes" true (c.Engine.jitter ~latency:5 ~round:0 >= 5)

(* ------------------------------------------------------------------ *)
(* Engine-level fault semantics *)

let test_crashed_node_is_silent () =
  (* Node 1 crashed from round 0: node 0's exchanges with it are lost
     and counted as dropped. *)
  let g = Graph.of_edges ~n:2 [ (0, 1, 2) ] in
  let plan =
    { Engine.no_faults with Engine.alive = (fun ~node ~round:_ -> node <> 1) }
  in
  let responses = ref 0 in
  let handlers u =
    {
      Engine.on_round = (fun ~round -> if u = 0 && round < 3 then Some (1, ()) else None);
      on_request = (fun ~peer:_ ~round:_ () -> ());
      on_push = (fun ~peer:_ ~round:_ () -> ());
      on_response = (fun ~peer:_ ~round:_ () -> incr responses);
    }
  in
  let engine = Engine.create ~faults:plan g ~handlers in
  for _ = 1 to 10 do
    Engine.step engine
  done;
  checki "no responses" 0 !responses;
  checki "three drops" 3 (Engine.metrics engine).Engine.dropped

let test_dropped_exchange_never_arrives () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1) ] in
  let plan =
    {
      Engine.no_faults with
      Engine.drop = (fun ~initiator:_ ~responder:_ ~round -> round = 0);
    }
  in
  let pushes = ref 0 in
  let handlers u =
    {
      Engine.on_round = (fun ~round -> if u = 0 && round <= 1 then Some (1, ()) else None);
      on_request = (fun ~peer:_ ~round:_ () -> ());
      on_push = (fun ~peer:_ ~round:_ () -> incr pushes);
      on_response = (fun ~peer:_ ~round:_ () -> ());
    }
  in
  let engine = Engine.create ~faults:plan g ~handlers in
  for _ = 1 to 5 do
    Engine.step engine
  done;
  checki "only the round-1 exchange lands" 1 !pushes;
  checki "one drop" 1 (Engine.metrics engine).Engine.dropped

let test_jitter_delays_delivery () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 2) ] in
  let plan =
    { Engine.no_faults with Engine.jitter = (fun ~latency ~round:_ -> latency + 3) }
  in
  let response_round = ref (-1) in
  let handlers u =
    {
      Engine.on_round = (fun ~round -> if u = 0 && round = 0 then Some (1, ()) else None);
      on_request = (fun ~peer:_ ~round:_ () -> ());
      on_push = (fun ~peer:_ ~round:_ () -> ());
      on_response = (fun ~peer:_ ~round () -> response_round := round);
    }
  in
  let engine = Engine.create ~faults:plan g ~handlers in
  for _ = 1 to 10 do
    Engine.step engine
  done;
  checki "round trip = latency + jitter" 5 !response_round

let test_payload_words_metric () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1) ] in
  let handlers u =
    {
      Engine.on_round = (fun ~round -> if u = 0 && round = 0 then Some (1, 10) else None);
      on_request = (fun ~peer:_ ~round:_ _ -> 32);
      on_push = (fun ~peer:_ ~round:_ _ -> ());
      on_response = (fun ~peer:_ ~round:_ _ -> ());
    }
  in
  let engine = Engine.create ~payload_size:(fun w -> w) g ~handlers in
  for _ = 1 to 3 do
    Engine.step engine
  done;
  (* Request carried 10 units, response 32. *)
  checki "payload accounting" 42 (Engine.metrics engine).Engine.payload_words

let test_in_capacity_rejects () =
  (* Three clients request the same server each round; capacity 1
     serves exactly one per round and rejects the rest. *)
  let g = Graph.of_edges ~n:4 [ (0, 3, 1); (1, 3, 1); (2, 3, 1) ] in
  let served = ref 0 in
  let handlers u =
    {
      Engine.on_round = (fun ~round -> if u < 3 && round < 6 then Some (3, ()) else None);
      on_request =
        (fun ~peer:_ ~round:_ () ->
          incr served;
          ());
      on_push = (fun ~peer:_ ~round:_ () -> ());
      on_response = (fun ~peer:_ ~round:_ () -> ());
    }
  in
  let engine = Engine.create ~in_capacity:1 g ~handlers in
  for _ = 1 to 10 do
    Engine.step engine
  done;
  checki "one served per round" 6 !served;
  checki "rest rejected" 12 (Engine.metrics engine).Engine.rejected

let test_in_capacity_fairness () =
  (* Rotation must eventually serve every client. *)
  let g = Graph.of_edges ~n:4 [ (0, 3, 1); (1, 3, 1); (2, 3, 1) ] in
  let served_from = Array.make 4 false in
  let handlers u =
    {
      Engine.on_round = (fun ~round -> if u < 3 && round < 9 then Some (3, ()) else None);
      on_request =
        (fun ~peer ~round:_ () ->
          served_from.(peer) <- true;
          ());
      on_push = (fun ~peer:_ ~round:_ () -> ());
      on_response = (fun ~peer:_ ~round:_ () -> ());
    }
  in
  let engine = Engine.create ~in_capacity:1 g ~handlers in
  for _ = 1 to 12 do
    Engine.step engine
  done;
  for client = 0 to 2 do
    checkb "every client served at least once" true served_from.(client)
  done

let test_in_capacity_validation () =
  let g = Gen.path 2 in
  Alcotest.check_raises "capacity 0" (Invalid_argument "Engine.create: in_capacity must be >= 1")
    (fun () ->
      ignore
        (Engine.create ~in_capacity:0 g ~handlers:(fun _ ->
             {
               Engine.on_round = (fun ~round:_ -> None);
               on_request = (fun ~peer:_ ~round:_ () -> ());
               on_push = (fun ~peer:_ ~round:_ () -> ());
               on_response = (fun ~peer:_ ~round:_ () -> ());
             })))

(* ------------------------------------------------------------------ *)
(* Runners *)

let test_pushpull_no_faults_equals_plain () =
  let g = Gen.clique 16 in
  let r =
    Robustness.pushpull_broadcast (Rng.of_int 9) g ~source:0 ~plan:Robustness.no_faults
      ~max_rounds:10_000
  in
  checkb "completes" true (r.Robustness.rounds <> None);
  checki "all live" 16 r.Robustness.live;
  checki "all informed" 16 r.Robustness.informed_live

let test_pushpull_survives_drops () =
  let g = Gen.clique 24 in
  let plan = Robustness.drop_rate (Rng.of_int 10) ~rate:0.3 in
  let r =
    Robustness.pushpull_broadcast (Rng.of_int 11) g ~source:0 ~plan ~max_rounds:100_000
  in
  checkb "still completes" true (r.Robustness.rounds <> None)

let test_pushpull_covers_live_after_crashes () =
  let g = Gen.clique 32 in
  let plan =
    Robustness.crash_fraction (Rng.of_int 12) ~n:32 ~fraction:0.25 ~from_round:2 ~protect:[ 0 ]
  in
  let r =
    Robustness.pushpull_broadcast (Rng.of_int 13) g ~source:0 ~plan ~max_rounds:100_000
  in
  checkb "live graph covered" true (r.Robustness.informed_live = r.Robustness.live);
  checki "live count" 24 r.Robustness.live

let test_rr_fragile_on_tree_shape () =
  (* A path's spanner is the path itself; crashing a middle node must
     strand the far side. *)
  let g = Gen.path 9 in
  let spanner = Spanner.build (Rng.of_int 14) g ~k:2 () in
  let plan =
    { Engine.no_faults with Engine.alive = (fun ~node ~round -> not (node = 4 && round >= 0)) }
  in
  let r = Robustness.rr_broadcast spanner ~source:0 ~k:20 ~plan in
  checkb "some live node stranded" true (r.Robustness.informed_live < r.Robustness.live)

let test_bounded_indegree_star_linear () =
  let n = 32 in
  let g = Gen.star n in
  let unbounded = Gossip_core.Push_pull.broadcast (Rng.of_int 15) g ~source:0 ~max_rounds:10_000 in
  let bounded =
    Robustness.pushpull_bounded_indegree (Rng.of_int 15) g ~source:0 ~capacity:1
      ~max_rounds:100_000
  in
  let u = match unbounded.Gossip_core.Push_pull.rounds with Some x -> x | None -> max_int in
  let b = match bounded.Robustness.rounds with Some x -> x | None -> max_int in
  checkb "capacity 1 is ~n slower" true (b >= (n / 2) + 1 && b > 4 * u)

let prop_pushpull_with_faults_covers_live =
  QCheck.Test.make ~name:"faulty push-pull always covers live connected component" ~count:8
    QCheck.(pair (int_range 10 30) (int_range 0 100))
    (fun (n, seed) ->
      (* Dense graph, so the live part is almost always connected; 15 of the
         2121 draws crash a cut (e.g. every neighbour of the source). The
         property is stated against the source's live component, so it holds
         on both: push-pull informs at least as many live nodes as the source
         reaches over live nodes (the result carries counts, not the set). It
         may inform more, since the crashed nodes are alive in round 1 and can
         relay before they crash. On a cut draw the run may never stop early,
         so it gets a small round cap. *)
      let g = Gen.erdos_renyi_connected (Rng.of_int seed) ~n ~p:0.5 in
      let plan =
        Robustness.crash_fraction (Rng.of_int (seed + 1)) ~n ~fraction:0.2 ~from_round:2
          ~protect:[ 0 ]
      in
      let live v = plan.Engine.alive ~node:v ~round:max_int in
      let reached = Array.make n false in
      let rec visit v =
        if not reached.(v) then begin
          reached.(v) <- true;
          Array.iter (fun (w, _) -> if live w then visit w) (Graph.neighbors g v)
        end
      in
      visit 0;
      let count p = List.length (List.filter p (List.init n Fun.id)) in
      let n_reached = count (fun v -> reached.(v)) and n_live = count live in
      let r =
        Robustness.pushpull_broadcast (Rng.of_int (seed + 2)) g ~source:0 ~plan
          ~max_rounds:(if n_reached = n_live then 1_000_000 else 1_000)
      in
      r.Robustness.live = n_live && r.Robustness.informed_live >= n_reached)

let () =
  Alcotest.run "gossip_robustness"
    [
      ( "plans",
        [
          Alcotest.test_case "crash fraction" `Quick test_crash_fraction_counts;
          Alcotest.test_case "crash fraction rounds" `Quick test_crash_fraction_rounds_to_nearest;
          Alcotest.test_case "crash skipped surfaced" `Quick test_crash_fraction_skipped_surfaced;
          Alcotest.test_case "crash validation" `Quick test_crash_fraction_validation;
          Alcotest.test_case "drop extremes" `Quick test_drop_rate_extremes;
          Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds;
          Alcotest.test_case "combine" `Quick test_combine;
        ] );
      ( "engine-faults",
        [
          Alcotest.test_case "crashed node silent" `Quick test_crashed_node_is_silent;
          Alcotest.test_case "dropped exchange" `Quick test_dropped_exchange_never_arrives;
          Alcotest.test_case "jitter delays" `Quick test_jitter_delays_delivery;
          Alcotest.test_case "payload accounting" `Quick test_payload_words_metric;
          Alcotest.test_case "in-capacity rejects" `Quick test_in_capacity_rejects;
          Alcotest.test_case "in-capacity fairness" `Quick test_in_capacity_fairness;
          Alcotest.test_case "in-capacity validation" `Quick test_in_capacity_validation;
        ] );
      ( "runners",
        [
          Alcotest.test_case "no faults = plain" `Quick test_pushpull_no_faults_equals_plain;
          Alcotest.test_case "survives drops" `Quick test_pushpull_survives_drops;
          Alcotest.test_case "covers live after crashes" `Quick
            test_pushpull_covers_live_after_crashes;
          Alcotest.test_case "rr fragile on path" `Quick test_rr_fragile_on_tree_shape;
          Alcotest.test_case "bounded in-degree star" `Quick test_bounded_indegree_star_linear;
          qtest prop_pushpull_with_faults_covers_live;
        ] );
    ]
