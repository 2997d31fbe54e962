(* Tests for the Baswana-Sen spanner with orientation (Appendix D,
   Lemma 13). *)

module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Gen = Gossip_graph.Gen
module Spanner = Gossip_core.Spanner
module Csr = Gossip_scale.Csr

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

let test_k1_is_identity () =
  let g = Gen.clique 8 in
  let s = Spanner.build (Rng.of_int 1) g ~k:1 () in
  checki "all edges kept" (Graph.m g) (Spanner.edge_count s);
  Alcotest.check (Alcotest.float 1e-9) "stretch 1" 1.0 (Spanner.stretch s)

let test_connectivity_preserved () =
  List.iter
    (fun (name, g) ->
      let s = Spanner.build (Rng.of_int 2) g ~k:3 () in
      if not (Graph.is_connected s.Spanner.spanner) then
        Alcotest.failf "%s spanner disconnected" name)
    [
      ("clique", Gen.clique 20);
      ("grid", Gen.grid 5 5);
      ("cycle", Gen.cycle 15);
      ("ring-of-cliques", Gen.ring_of_cliques ~cliques:4 ~size:5 ~bridge_latency:3);
    ]

let test_stretch_bound_k2 () =
  let rng = Rng.of_int 3 in
  let g = Gen.erdos_renyi_connected rng ~n:40 ~p:0.3 in
  let s = Spanner.build rng g ~k:2 () in
  checkb "stretch <= 3" true (Spanner.stretch s <= 3.0 +. 1e-9)

let test_stretch_bound_k3_weighted () =
  let rng = Rng.of_int 4 in
  let g = Gen.with_latencies rng (Gen.Uniform (1, 10)) (Gen.erdos_renyi_connected rng ~n:40 ~p:0.3) in
  let s = Spanner.build rng g ~k:3 () in
  checkb "stretch <= 5" true (Spanner.stretch s <= 5.0 +. 1e-9)

let test_sparsification () =
  (* On a dense graph, k = log n should keep O(n log n) edges. *)
  let rng = Rng.of_int 5 in
  let n = 64 in
  let g = Gen.clique n in
  let k = 6 in
  let s = Spanner.build rng g ~k () in
  let nf = float_of_int n in
  checkb "far fewer edges than the clique" true
    (float_of_int (Spanner.edge_count s) <= 8.0 *. nf *. log nf);
  checkb "sparser than base" true (Spanner.edge_count s < Graph.m g / 4)

let test_out_degree_bound () =
  (* Lemma 13 shape: out-degree O(n^(1/k) log n). *)
  let rng = Rng.of_int 6 in
  let n = 64 in
  let g = Gen.clique n in
  let k = 6 in
  let s = Spanner.build rng g ~k () in
  let bound = 8.0 *. (float_of_int n ** (1.0 /. float_of_int k)) *. log (float_of_int n) in
  checkb "out-degree bounded" true (float_of_int (Spanner.max_out_degree s) <= bound)

let test_deterministic_given_seed () =
  let g = Gen.erdos_renyi_connected (Rng.of_int 7) ~n:30 ~p:0.3 in
  let s1 = Spanner.build (Rng.of_int 42) g ~k:3 () in
  let s2 = Spanner.build (Rng.of_int 42) g ~k:3 () in
  checki "same edge count" (Spanner.edge_count s1) (Spanner.edge_count s2);
  checkb "same edges" true
    (Graph.edges s1.Spanner.spanner = Graph.edges s2.Spanner.spanner)

let test_n_hat_overestimate_still_works () =
  (* Lemma 13: running with n_hat = n^2 degrades only the degree
     bound. *)
  let rng = Rng.of_int 8 in
  let g = Gen.erdos_renyi_connected rng ~n:30 ~p:0.4 in
  let s = Spanner.build rng g ~k:4 ~n_hat:(30 * 30) () in
  checkb "still connected" true (Graph.is_connected s.Spanner.spanner);
  checkb "stretch <= 7" true (Spanner.stretch s <= 7.0 +. 1e-9)

let test_out_edges_cover_spanner () =
  let rng = Rng.of_int 9 in
  let g = Gen.grid 4 4 in
  let s = Spanner.build rng g ~k:2 () in
  let oriented = Array.fold_left (fun acc a -> acc + Array.length a) 0 s.Spanner.out_edges in
  checki "each spanner edge oriented exactly once" (Spanner.edge_count s) oriented

let test_invalid_k () =
  Alcotest.check_raises "k=0" (Invalid_argument "Spanner.build: need k >= 1") (fun () ->
      ignore (Spanner.build (Rng.of_int 1) (Gen.path 3) ~k:0 ()))

let test_disconnected_base () =
  (* Spanners of disconnected graphs span each component. *)
  let g = Graph.of_edges ~n:6 [ (0, 1, 1); (1, 2, 1); (3, 4, 1); (4, 5, 1) ] in
  let s = Spanner.build (Rng.of_int 10) g ~k:2 () in
  checkb "components spanned" true
    (Gossip_graph.Paths.distance s.Spanner.spanner 0 2 < Gossip_graph.Paths.unreachable)

let prop_stretch_respects_2k_minus_1 =
  QCheck.Test.make ~name:"stretch <= 2k-1 on random weighted graphs" ~count:20
    QCheck.(triple (int_range 8 32) (int_range 1 4) (int_range 0 1000))
    (fun (n, k, seed) ->
      let rng = Rng.of_int seed in
      let g =
        Gen.with_latencies rng (Gen.Uniform (1, 8)) (Gen.erdos_renyi_connected rng ~n ~p:0.4)
      in
      let s = Spanner.build rng g ~k () in
      Spanner.stretch s <= float_of_int ((2 * k) - 1) +. 1e-9)

let prop_spanner_subgraph =
  QCheck.Test.make ~name:"spanner edges are base edges with same latency" ~count:20
    QCheck.(pair (int_range 6 25) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.of_int seed in
      let g =
        Gen.with_latencies rng (Gen.Uniform (1, 9)) (Gen.erdos_renyi_connected rng ~n ~p:0.4)
      in
      let s = Spanner.build rng g ~k:3 () in
      List.for_all
        (fun { Graph.u; v; latency } -> Graph.latency g u v = Some latency)
        (Graph.edges s.Spanner.spanner))

let prop_spanner_spans =
  QCheck.Test.make ~name:"spanner of connected base is spanning" ~count:20
    QCheck.(pair (int_range 5 30) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.of_int seed in
      let g = Gen.erdos_renyi_connected rng ~n ~p:0.4 in
      let s = Spanner.build rng g ~k:3 () in
      Graph.is_connected s.Spanner.spanner && Spanner.edge_count s >= n - 1)

(* ---- Differential checks against the test-only oracle ---------------- *)

(* Families of the rr-spanner workloads plus ER; even seeds redraw
   latencies from U[1,8], odd seeds keep the family's own latencies
   (unit, or the ring bridges'), so both distinct and heavily tied
   weights are covered. *)
let family_names =
  [| "barabasi-albert"; "watts-strogatz"; "braided-ring"; "ring-of-cliques"; "erdos-renyi" |]

let family_graph fam ~n ~seed =
  let rng = Rng.of_int seed in
  let g =
    match fam with
    | 0 -> Csr.to_graph (Csr.barabasi_albert rng ~n ~attach:3)
    | 1 -> Csr.to_graph (Csr.watts_strogatz rng ~n ~k:3 ~beta:0.1)
    | 2 ->
        Csr.to_graph
          (Csr.braided_ring ~cliques:(max 3 (n / 8)) ~size:8 ~bridges:3 ~bridge_latency:4)
    | 3 -> Gen.ring_of_cliques ~cliques:(max 3 (n / 6)) ~size:6 ~bridge_latency:5
    | _ ->
        let p = if seed mod 3 = 0 then 0.5 else 8.0 /. float_of_int n in
        Gen.erdos_renyi_connected rng ~n ~p
  in
  if seed mod 2 = 0 then Gen.with_latencies rng (Gen.Uniform (1, 8)) g else g

let same_as_oracle ?n_hat g ~k ~seed =
  let s = Spanner.build (Rng.of_int seed) g ~k ?n_hat () in
  let r = Spanner_ref.build (Rng.of_int seed) g ~k ?n_hat () in
  s.Spanner.out_edges = r.Spanner_ref.out_edges
  && Graph.edges s.Spanner.spanner = Graph.edges r.Spanner_ref.spanner

let prop_matches_oracle =
  QCheck.Test.make ~name:"build = oracle: out_edges in row order and spanner graph" ~count:120
    QCheck.(
      quad (int_range 0 4) (int_range 20 400) (int_range 0 3) (pair bool (int_range 0 100_000)))
    (fun (fam, n, ki, (square, seed)) ->
      let g = family_graph fam ~n ~seed in
      let n = Graph.n g in
      let k = match ki with 0 -> 1 | 1 -> 2 | 2 -> 3 | _ -> Spanner.ceil_log2 n in
      let n_hat = if square then n * n else n in
      if same_as_oracle g ~k ~n_hat ~seed then true
      else
        QCheck.Test.fail_reportf "%s n=%d k=%d n_hat=%d seed=%d" family_names.(fam) n k n_hat
          seed)

let test_oracle_high_degree () =
  (* Rows past 32 and 64 entries: the table-order buckets double. *)
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          if not (same_as_oracle g ~k ~seed:(k + 11)) then
            Alcotest.failf "%s k=%d differs from the oracle" name k)
        [ 1; 2; 3; 7 ])
    [
      ("clique 100", Gen.clique 100);
      ("star 300", Gen.star 300);
      ( "dense ER weighted",
        Gen.with_latencies (Rng.of_int 3) (Gen.Uniform (1, 4))
          (Gen.erdos_renyi_connected (Rng.of_int 4) ~n:160 ~p:0.6) );
    ]

let test_oracle_ba_large () =
  let n = 20_000 in
  let g = Csr.to_graph (Csr.barabasi_albert (Rng.of_int 77) ~n ~attach:3) in
  checkb "BA 2e4, k = log n" true (same_as_oracle g ~k:(Spanner.ceil_log2 n) ~seed:106)

(* ---- Allocation budget ------------------------------------------------- *)

let test_minor_words_budget () =
  let n = 20_000 in
  let csr = Csr.barabasi_albert (Rng.of_int 20) ~n ~attach:3 in
  let g = Csr.to_graph (Csr.with_latencies (Rng.of_int 27) (Gen.Uniform (1, 8)) csr) in
  let before = Gc.minor_words () in
  let s = Spanner.build (Rng.of_int 29) g ~k:(Spanner.ceil_log2 n) ~n_hat:n () in
  let per_edge = (Gc.minor_words () -. before) /. float_of_int (Graph.m g) in
  checkb "spanner built" true (Spanner.edge_count s > 0);
  if per_edge > float_of_int Spanner.minor_words_budget then
    Alcotest.failf "Spanner.build allocates %.1f minor words per edge, budget %d" per_edge
      Spanner.minor_words_budget

(* ---- Graph.of_edges against a naive reference -------------------------- *)

(* The tuple-keyed-table [Graph.of_edges] that the counting sort
   replaced: edges checked one by one in list order, rows sorted by
   comparison.  Returns the edge count and the rows. *)
let naive_of_edges ~n edge_list =
  let buckets = Array.make n [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (u, v, latency) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      if latency < 1 then invalid_arg "Graph.of_edges: latency must be >= 1";
      let key = (min u v, max u v) in
      if Hashtbl.mem seen key then invalid_arg "Graph.of_edges: parallel edge";
      Hashtbl.add seen key ();
      buckets.(u) <- (v, latency) :: buckets.(u);
      buckets.(v) <- (u, latency) :: buckets.(v))
    edge_list;
  let rows =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort (fun (x, _) (y, _) -> compare x y) a;
        a)
      buckets
  in
  (Hashtbl.length seen, rows)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A random simple graph as a shuffled edge list with random endpoint
   order, plus [faults] bad edges (a parallel copy, a self-loop, an
   endpoint out of range, a zero latency) at random positions. *)
let faulty_edge_list rng ~n ~faults =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng 0.3 then begin
        let lat = Rng.int_in rng 1 5 in
        edges := (if Rng.bool rng then (u, v, lat) else (v, u, lat)) :: !edges
      end
    done
  done;
  let a = Array.of_list !edges in
  shuffle rng a;
  let l = ref (Array.to_list a) in
  for _ = 1 to faults do
    let bad =
      match Rng.int rng 4 with
      | 0 when a <> [||] ->
          let u, v, lat = a.(Rng.int rng (Array.length a)) in
          if Rng.bool rng then (v, u, lat + 1) else (u, v, lat)
      | 1 ->
          let u = Rng.int rng n in
          (u, u, 1)
      | 2 -> (Rng.int rng n, (if Rng.bool rng then n else -1), 1)
      | _ -> (0, 1 + Rng.int rng (max 1 (n - 1)), 0)
    in
    let pos = Rng.int rng (List.length !l + 1) in
    l := List.filteri (fun i _ -> i < pos) !l @ (bad :: List.filteri (fun i _ -> i >= pos) !l)
  done;
  !l

let prop_of_edges_matches_naive =
  QCheck.Test.make ~name:"Graph.of_edges = naive reference on shuffled, faulty edge lists"
    ~count:500
    QCheck.(triple (int_range 2 30) (int_range 0 100_000) (int_range 0 3))
    (fun (n, seed, faults) ->
      let l = faulty_edge_list (Rng.of_int seed) ~n ~faults in
      let result f = match f () with r -> Ok r | exception Invalid_argument msg -> Error msg in
      result (fun () ->
          let g = Graph.of_edges ~n l in
          (Graph.m g, Array.init n (Graph.neighbors g)))
      = result (fun () -> naive_of_edges ~n l))

let () =
  Alcotest.run "gossip_spanner"
    [
      ( "spanner",
        [
          Alcotest.test_case "k=1 identity" `Quick test_k1_is_identity;
          Alcotest.test_case "connectivity preserved" `Quick test_connectivity_preserved;
          Alcotest.test_case "stretch k=2" `Quick test_stretch_bound_k2;
          Alcotest.test_case "stretch k=3 weighted" `Quick test_stretch_bound_k3_weighted;
          Alcotest.test_case "sparsification" `Quick test_sparsification;
          Alcotest.test_case "out-degree bound (Lemma 13)" `Quick test_out_degree_bound;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
          Alcotest.test_case "n_hat overestimate" `Quick test_n_hat_overestimate_still_works;
          Alcotest.test_case "orientation covers" `Quick test_out_edges_cover_spanner;
          Alcotest.test_case "invalid k" `Quick test_invalid_k;
          Alcotest.test_case "disconnected base" `Quick test_disconnected_base;
          qtest prop_stretch_respects_2k_minus_1;
          qtest prop_spanner_subgraph;
          qtest prop_spanner_spans;
        ] );
      ( "oracle",
        [
          qtest prop_matches_oracle;
          Alcotest.test_case "high-degree rows" `Quick test_oracle_high_degree;
          Alcotest.test_case "BA 2e4, k = log n" `Quick test_oracle_ba_large;
        ] );
      ( "alloc",
        [ Alcotest.test_case "minor words per edge (BA 2e4)" `Quick test_minor_words_budget ] );
      ("edges", [ qtest prop_of_edges_matches_naive ]);
    ]
