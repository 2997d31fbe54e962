type node = int

type edge = { u : node; v : node; latency : int }

type t = {
  n : int;
  adj : (node * int) array array; (* adj.(u) sorted by neighbor id *)
  m : int;
}

let edge_error ~n (u, v, latency) =
  if u < 0 || u >= n || v < 0 || v >= n then Some "Graph.of_edges: endpoint out of range"
  else if u = v then Some "Graph.of_edges: self-loop"
  else if latency < 1 then Some "Graph.of_edges: latency must be >= 1"
  else None

let rec of_edges ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let deg = Array.make n 0 in
  let count = ref 0 in
  List.iter
    (fun ((u, v, _) as e) ->
      (match edge_error ~n e with
      | None -> ()
      | Some msg ->
          (* The first bad edge in list order names the error, so a
             parallel pair before this edge wins: look for one in the
             (valid) prefix first. *)
          ignore (of_edges ~n (List.filteri (fun i _ -> i < !count) edge_list));
          invalid_arg msg);
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1;
      incr count)
    edge_list;
  (* Counting sort: scatter both directions into per-node rows in list
     order, then visit the rows by ascending owner [x] and append [x]
     to each of its neighbours' final rows, which come out sorted by
     neighbour id.  A parallel edge shows as the same [x] twice in a
     row. *)
  let start = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    start.(u + 1) <- start.(u) + deg.(u)
  done;
  let peer = Array.make start.(n) 0 and lat = Array.make start.(n) 0 in
  let fill = Array.sub start 0 n in
  let put u v l =
    peer.(fill.(u)) <- v;
    lat.(fill.(u)) <- l;
    fill.(u) <- fill.(u) + 1
  in
  List.iter
    (fun (u, v, l) ->
      put u v l;
      put v u l)
    edge_list;
  let adj = Array.init n (fun u -> Array.make deg.(u) (0, 0)) in
  Array.fill fill 0 n 0;
  for x = 0 to n - 1 do
    for s = start.(x) to start.(x + 1) - 1 do
      let u = peer.(s) in
      let p = fill.(u) in
      let row = adj.(u) in
      if p > 0 && fst row.(p - 1) = x then invalid_arg "Graph.of_edges: parallel edge";
      row.(p) <- (x, lat.(s));
      fill.(u) <- p + 1
    done
  done;
  { n; adj; m = !count }

let n g = g.n

let m g = g.m

let neighbors g u =
  if u < 0 || u >= g.n then invalid_arg "Graph.neighbors: node out of range";
  g.adj.(u)

let degree g u = Array.length (neighbors g u)

let max_degree g =
  Array.fold_left (fun acc a -> max acc (Array.length a)) 0 g.adj

let latency g u v =
  let a = neighbors g u in
  (* Binary search on the sorted neighbor array. *)
  let rec go lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let w, lat = a.(mid) in
      if w = v then Some lat else if w < v then go (mid + 1) hi else go lo (mid - 1)
    end
  in
  go 0 (Array.length a - 1)

let mem_edge g u v = latency g u v <> None

let iter_edges f g =
  for u = 0 to g.n - 1 do
    Array.iter (fun (v, latency) -> if u < v then f { u; v; latency }) g.adj.(u)
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun e -> acc := e :: !acc) g;
  List.rev !acc

let max_latency g =
  let best = ref 1 in
  iter_edges (fun e -> if e.latency > !best then best := e.latency) g;
  !best

let distinct_latencies g =
  let tbl = Hashtbl.create 16 in
  iter_edges (fun e -> Hashtbl.replace tbl e.latency ()) g;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let map_latencies f g =
  let acc = ref [] in
  iter_edges (fun e -> acc := (e.u, e.v, f e.u e.v e.latency) :: !acc) g;
  of_edges ~n:g.n !acc

let subgraph_le g l =
  let acc = ref [] in
  iter_edges (fun e -> if e.latency <= l then acc := (e.u, e.v, e.latency) :: !acc) g;
  of_edges ~n:g.n !acc

let is_connected g =
  if g.n <= 1 then true
  else begin
    let seen = Array.make g.n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let visited = ref 1 in
    let rec loop () =
      match !stack with
      | [] -> ()
      | u :: rest ->
          stack := rest;
          Array.iter
            (fun (v, _) ->
              if not seen.(v) then begin
                seen.(v) <- true;
                incr visited;
                stack := v :: !stack
              end)
            g.adj.(u);
          loop ()
    in
    loop ();
    !visited = g.n
  end

let volume g nodes = List.fold_left (fun acc u -> acc + degree g u) 0 nodes

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, Δ=%d, ℓmax=%d)" g.n g.m (max_degree g) (max_latency g)
