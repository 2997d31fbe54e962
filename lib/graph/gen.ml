module Rng = Gossip_util.Rng

type latency_spec =
  | Unit
  | Fixed of int
  | Uniform of int * int
  | Bimodal of { fast : int; slow : int; p_fast : float }
  | Power_law of { min_latency : int; max_latency : int; exponent : float }

let draw_latency rng spec =
  match spec with
  | Unit -> 1
  | Fixed l ->
      if l < 1 then invalid_arg "Gen.draw_latency: Fixed < 1";
      l
  | Uniform (lo, hi) ->
      if lo < 1 || lo > hi then invalid_arg "Gen.draw_latency: bad Uniform range";
      Rng.int_in rng lo hi
  | Bimodal { fast; slow; p_fast } ->
      if fast < 1 || slow < 1 then invalid_arg "Gen.draw_latency: Bimodal < 1";
      if Rng.bernoulli rng p_fast then fast else slow
  | Power_law { min_latency; max_latency; exponent } ->
      if min_latency < 1 || min_latency > max_latency then
        invalid_arg "Gen.draw_latency: bad Power_law range";
      (* Inverse-CDF sampling of a bounded Pareto with the given
         exponent, rounded to an integer latency. *)
      let a = float_of_int min_latency and b = float_of_int max_latency in
      let alpha = exponent -. 1.0 in
      let u = Rng.float rng 1.0 in
      let x =
        if Float.abs alpha < 1e-9 then a *. ((b /. a) ** u)
        else begin
          let ha = a ** -.alpha and hb = b ** -.alpha in
          (ha -. (u *. (ha -. hb))) ** (-1.0 /. alpha)
        end
      in
      max min_latency (min max_latency (int_of_float (Float.round x)))

let with_latencies rng spec g =
  Graph.map_latencies (fun _ _ _ -> draw_latency rng spec) g

let clique n =
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      acc := (u, v, 1) :: !acc
    done
  done;
  Graph.of_edges ~n !acc

let star n =
  if n < 1 then invalid_arg "Gen.star";
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1, 1)))

let path n =
  if n < 1 then invalid_arg "Gen.path";
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1, 1)))

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: need n >= 3";
  Graph.of_edges ~n ((n - 1, 0, 1) :: List.init (n - 1) (fun i -> (i, i + 1, 1)))

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid";
  let id r c = (r * cols) + c in
  let acc = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then acc := (id r c, id r (c + 1), 1) :: !acc;
      if r + 1 < rows then acc := (id r c, id (r + 1) c, 1) :: !acc
    done
  done;
  Graph.of_edges ~n:(rows * cols) !acc

let torus rows cols =
  if rows < 3 || cols < 3 then invalid_arg "Gen.torus: need dims >= 3";
  let id r c = (r * cols) + c in
  let acc = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      acc := (id r c, id r ((c + 1) mod cols), 1) :: !acc;
      acc := (id r c, id ((r + 1) mod rows) c, 1) :: !acc
    done
  done;
  Graph.of_edges ~n:(rows * cols) !acc

let hypercube d =
  if d < 1 || d > 20 then invalid_arg "Gen.hypercube: d out of [1,20]";
  let n = 1 lsl d in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let v = u lxor (1 lsl bit) in
      if u < v then acc := (u, v, 1) :: !acc
    done
  done;
  Graph.of_edges ~n !acc

let binary_tree n =
  if n < 1 then invalid_arg "Gen.binary_tree";
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (((i + 1) - 1) / 2, i + 1, 1)))

let erdos_renyi rng ~n ~p =
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng p then acc := (u, v, 1) :: !acc
    done
  done;
  Graph.of_edges ~n !acc

let erdos_renyi_connected rng ~n ~p =
  let rec go attempts =
    if attempts = 0 then failwith "Gen.erdos_renyi_connected: no connected sample in 1000 tries";
    let g = erdos_renyi rng ~n ~p in
    if Graph.is_connected g then g else go (attempts - 1)
  in
  go 1000

let random_regular rng ~n ~d =
  if d >= n || d < 1 then invalid_arg "Gen.random_regular: need 1 <= d < n";
  if n * d mod 2 <> 0 then invalid_arg "Gen.random_regular: n*d must be even";
  (* Configuration model with edge-swap repair: pair up half-edges,
     then fix self-loops and multi-edges by swapping endpoints with
     random good edges.  A full restart of the matching would almost
     never produce a simple graph for d beyond ~4. *)
  let stubs = Array.init (n * d) (fun i -> i / d) in
  let rec attempt tries =
    if tries = 0 then failwith "Gen.random_regular: repair failed after 50 restarts";
    Rng.shuffle rng stubs;
    let pairs = Array.init (n * d / 2) (fun i -> (stubs.(2 * i), stubs.((2 * i) + 1))) in
    let seen = Hashtbl.create (n * d) in
    let key u v = if u < v then (u, v) else (v, u) in
    let good (u, v) = u <> v && not (Hashtbl.mem seen (key u v)) in
    (* First pass: register good pairs, queue the bad ones. *)
    let bad = ref [] in
    Array.iteri
      (fun i p -> if good p then Hashtbl.replace seen (key (fst p) (snd p)) i else bad := i :: !bad)
      pairs;
    (* Repair loop: swap a bad pair with a uniformly random pair. *)
    let budget = ref (200 * (List.length !bad + 1)) in
    let rec repair = function
      | [] -> true
      | i :: rest when good pairs.(i) ->
          Hashtbl.replace seen (key (fst pairs.(i)) (snd pairs.(i))) i;
          repair rest
      | i :: rest ->
          decr budget;
          if !budget <= 0 then false
          else begin
            let j = Rng.int rng (Array.length pairs) in
            let u, v = pairs.(i) and x, y = pairs.(j) in
            if j <> i
               && Hashtbl.find_opt seen (key x y) = Some j
               && u <> x && v <> y
               && key u x <> key v y
               && (not (Hashtbl.mem seen (key u x)))
               && not (Hashtbl.mem seen (key v y))
            then begin
              Hashtbl.remove seen (key x y);
              pairs.(i) <- (u, x);
              pairs.(j) <- (v, y);
              Hashtbl.replace seen (key v y) j;
              repair (i :: rest)
            end
            else repair (i :: rest)
          end
    in
    if repair !bad then
      Graph.of_edges ~n (Array.to_list (Array.map (fun (u, v) -> (u, v, 1)) pairs))
    else attempt (tries - 1)
  in
  attempt 50

let ring_of_cliques ~cliques ~size ~bridge_latency =
  if cliques < 3 then invalid_arg "Gen.ring_of_cliques: need >= 3 cliques";
  if size < 1 then invalid_arg "Gen.ring_of_cliques: need size >= 1";
  if bridge_latency < 1 then invalid_arg "Gen.ring_of_cliques: bad bridge latency";
  let n = cliques * size in
  let id c i = (c * size) + i in
  let acc = ref [] in
  for c = 0 to cliques - 1 do
    for i = 0 to size - 1 do
      for j = i + 1 to size - 1 do
        acc := (id c i, id c j, 1) :: !acc
      done
    done;
    (* Bridge from the last node of clique c to the first node of the
       next clique; distinct endpoints avoid parallel edges when
       size = 1 would otherwise collide. *)
    let next = (c + 1) mod cliques in
    acc := (id c (size - 1), id next 0, bridge_latency) :: !acc
  done;
  Graph.of_edges ~n !acc

let dumbbell ~size ~bridge_latency =
  if size < 2 then invalid_arg "Gen.dumbbell: need size >= 2";
  if bridge_latency < 1 then invalid_arg "Gen.dumbbell: bad bridge latency";
  let n = 2 * size in
  let acc = ref [] in
  for u = 0 to size - 1 do
    for v = u + 1 to size - 1 do
      acc := (u, v, 1) :: !acc;
      acc := (size + u, size + v, 1) :: !acc
    done
  done;
  acc := (size - 1, size, bridge_latency) :: !acc;
  Graph.of_edges ~n !acc

let barabasi_albert rng ~n ~attach =
  if attach < 1 || n <= attach then invalid_arg "Gen.barabasi_albert: need n > attach >= 1";
  (* Degree-proportional sampling via the repeated-endpoints list. *)
  let endpoints = ref [] in
  let acc = ref [] in
  let seed_size = attach + 1 in
  for u = 0 to seed_size - 1 do
    for v = u + 1 to seed_size - 1 do
      acc := (u, v, 1) :: !acc;
      endpoints := u :: v :: !endpoints
    done
  done;
  let endpoints = ref (Array.of_list !endpoints) in
  let count = ref (Array.length !endpoints) in
  let push e =
    if !count >= Array.length !endpoints then begin
      let bigger = Array.make (2 * max 1 (Array.length !endpoints)) 0 in
      Array.blit !endpoints 0 bigger 0 !count;
      endpoints := bigger
    end;
    !endpoints.(!count) <- e;
    incr count
  in
  for u = seed_size to n - 1 do
    let chosen = Hashtbl.create ~random:false attach in
    while Hashtbl.length chosen < attach do
      let v = !endpoints.(Rng.int rng !count) in
      if v <> u then Hashtbl.replace chosen v ()
    done;
    Hashtbl.iter
      (fun v () ->
        acc := (u, v, 1) :: !acc;
        push u;
        push v)
      chosen
  done;
  Graph.of_edges ~n !acc

let watts_strogatz rng ~n ~k ~beta =
  if k < 1 || n <= 2 * k then invalid_arg "Gen.watts_strogatz: need n > 2k >= 2";
  if not (beta >= 0.0 && beta <= 1.0) then invalid_arg "Gen.watts_strogatz: beta out of [0,1]";
  (* Ring lattice edges (u, u+j) for j = 1..k, each rewired with
     probability beta to a fresh random endpoint. *)
  let have = Hashtbl.create (n * k) in
  let key u v = if u < v then (u, v) else (v, u) in
  for u = 0 to n - 1 do
    for j = 1 to k do
      Hashtbl.replace have (key u ((u + j) mod n)) ()
    done
  done;
  for u = 0 to n - 1 do
    for j = 1 to k do
      if Rng.bernoulli rng beta then begin
        let v = (u + j) mod n in
        (* Try a few times to find a fresh endpoint; keep the lattice
           edge when the neighborhood is saturated. *)
        let rec rewire tries =
          if tries = 0 then ()
          else begin
            let w = Rng.int rng n in
            if w <> u && w <> v && not (Hashtbl.mem have (key u w)) then begin
              Hashtbl.remove have (key u v);
              Hashtbl.replace have (key u w) ()
            end
            else rewire (tries - 1)
          end
        in
        if Hashtbl.mem have (key u v) then rewire 32
      end
    done
  done;
  Graph.of_edges ~n (Hashtbl.fold (fun (u, v) () acc -> (u, v, 1) :: acc) have [])
