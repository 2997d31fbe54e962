module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Csr = Gossip_scale.Csr

type t = {
  base : Graph.t;
  spanner : Graph.t;
  out_edges : (Graph.node * int) array array;
  k : int;
}

let ceil_log2 x =
  let rec go acc p = if p >= x then acc else go (acc + 1) (2 * p) in
  max 1 (go 0 1)

(* Bucket count of a Stdlib hash table created with at most 16 buckets
   once it holds [count] keys: 16, doubled while [count > 2 * buckets]. *)
let table_buckets count =
  let b = ref 16 in
  while count > 2 * !b do
    b := 2 * !b
  done;
  !b

(* [order_by_bucket ~hash ~counts src dst len] writes the ids
   [src.(0 .. len-1)] (in insertion order) into [dst] in the order a
   seed-0 hash table holding them iterates: bucket of [hash.(id)]
   ascending, most recently inserted first within a bucket.  A counting
   sort; [counts] is scratch of at least [table_buckets len] ints. *)
let order_by_bucket ~hash ~counts src dst len =
  let mask = table_buckets len - 1 in
  Array.fill counts 0 (mask + 1) 0;
  for i = 0 to len - 1 do
    let b = hash.(src.(i)) land mask in
    counts.(b) <- counts.(b) + 1
  done;
  let acc = ref 0 in
  for b = 0 to mask do
    let c = counts.(b) in
    counts.(b) <- !acc;
    acc := !acc + c
  done;
  for i = len - 1 downto 0 do
    let id = src.(i) in
    let b = hash.(id) land mask in
    dst.(counts.(b)) <- id;
    counts.(b) <- counts.(b) + 1
  done

let build rng g ~k ?n_hat () =
  if k < 1 then invalid_arg "Spanner.build: need k >= 1";
  let n = Graph.n g in
  let n_hat = match n_hat with Some h -> max h n | None -> n in
  let p_keep = float_of_int n_hat ** (-1.0 /. float_of_int k) in
  let hash = Array.init n Hashtbl.hash in
  let max_deg = Graph.max_degree g in
  let counts = Array.make (table_buckets max_deg) 0 in
  (* Alive edges, one slot per direction: node v's slots are
     [first.(v), first.(v+1)), holding the neighbour, the latency and
     the slot of the reverse direction.  Each row is laid out once in
     the order a per-node hash table filled in ascending neighbour order
     would iterate it; discards only clear alive bytes, so a scan of
     the alive slots of a row visits them in that table's order. *)
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v) + Graph.degree g v
  done;
  let slots = first.(n) in
  let nbr = Array.make slots 0 and lat = Array.make slots 0 and twin = Array.make slots 0 in
  let alive = Bytes.make slots '\001' in
  (* slot_of.(first.(v) + i) is the slot of v's i-th neighbour by id. *)
  let slot_of = Array.make slots 0 in
  (* index.(x) is x's position in the row being laid out. *)
  let index = Array.make n 0 in
  let ids = Array.make max_deg 0 and placed = Array.make max_deg 0 in
  for v = 0 to n - 1 do
    let row = Graph.neighbors g v in
    let d = Array.length row in
    for i = 0 to d - 1 do
      let x, _ = row.(i) in
      ids.(i) <- x;
      index.(x) <- i
    done;
    order_by_bucket ~hash ~counts ids placed d;
    for j = 0 to d - 1 do
      let i = index.(placed.(j)) in
      let s = first.(v) + j in
      let x, l = row.(i) in
      nbr.(s) <- x;
      lat.(s) <- l;
      slot_of.(first.(v) + i) <- s
    done
  done;
  (* Rows are sorted by neighbour id, so visiting u ascending meets the
     entries of each row x in order: the reverse of (u, x) is x's next
     unvisited entry. *)
  let cursor = Array.sub first 0 n in
  for u = 0 to n - 1 do
    let row = Graph.neighbors g u in
    for i = 0 to Array.length row - 1 do
      let x, _ = row.(i) in
      let j = cursor.(x) in
      cursor.(x) <- j + 1;
      twin.(slot_of.(first.(u) + i)) <- slot_of.(j)
    done
  done;
  let discard s =
    Bytes.set alive s '\000';
    Bytes.set alive twin.(s) '\000'
  in
  let is_alive s = Bytes.get alive s <> '\000' in
  (* Distinct weights: latency first, then the unordered endpoint pair
     — the paper's tie-break by node ids.  For two edges out of the
     same node that is (latency, peer). *)
  let closer s s' = lat.(s) < lat.(s') || (lat.(s) = lat.(s') && nbr.(s) < nbr.(s')) in
  (* Oriented edges in the order they were added, as slots of their
     source node. *)
  let added = Array.make (slots / 2) 0 and n_added = ref 0 in
  let add s =
    added.(!n_added) <- s;
    incr n_added;
    discard s
  in
  (* cluster.(v) is the center of v's cluster in C_{i-1}; -1 once v has
     fallen out of Phase 1 (Rule 1). *)
  let cluster = Array.init n (fun v -> v) in
  let next_cluster = Array.make n (-1) in
  (* best.(c) is the least-weight alive slot from the node being
     scanned into cluster c, -1 when there is none; [touched] lists the
     clusters seen, first-seen first, and [order] the same clusters in
     the order a seed-0 table keyed by cluster would iterate them. *)
  let best = Array.make n (-1) in
  let touched = Array.make max_deg 0 and order = Array.make max_deg 0 in
  let adjacent_clusters v =
    let cv = cluster.(v) in
    let cnt = ref 0 in
    for s = first.(v) to first.(v + 1) - 1 do
      if is_alive s then begin
        let c = cluster.(nbr.(s)) in
        if c >= 0 && c <> cv then begin
          let b = best.(c) in
          if b < 0 then begin
            best.(c) <- s;
            touched.(!cnt) <- c;
            incr cnt
          end
          else if closer s b then best.(c) <- s
        end
      end
    done;
    order_by_bucket ~hash ~counts touched order !cnt;
    !cnt
  in
  (* A cluster whose edges a node drops is marked in [best] until its
     row has been swept. *)
  let dropped = -2 in
  let drop_marked v =
    for s = first.(v) to first.(v + 1) - 1 do
      if is_alive s then begin
        let c = cluster.(nbr.(s)) in
        if c >= 0 && best.(c) = dropped then discard s
      end
    done
  in
  (* decided.(c) is the last iteration that drew cluster c's coin. *)
  let decided = Array.make n 0 and sampled = Bytes.make n '\000' in
  let is_sampled c = Bytes.get sampled c <> '\000' in
  (* Phase 1: k-1 sampling iterations. *)
  for i = 1 to k - 1 do
    for v = 0 to n - 1 do
      let c = cluster.(v) in
      if c >= 0 && decided.(c) <> i then begin
        decided.(c) <- i;
        Bytes.set sampled c (if Rng.bernoulli rng p_keep then '\001' else '\000')
      end;
      next_cluster.(v) <- (if c >= 0 && is_sampled c then c else -1)
    done;
    for v = 0 to n - 1 do
      if cluster.(v) >= 0 && not (is_sampled cluster.(v)) then begin
        let cnt = adjacent_clusters v in
        let join = ref (-1) in
        for j = 0 to cnt - 1 do
          let c = touched.(j) in
          if is_sampled c && (!join < 0 || closer best.(c) best.(!join)) then join := c
        done;
        if !join < 0 then
          (* Rule 1: no sampled neighbor cluster — connect once to
             every adjacent cluster and leave Phase 1. *)
          for j = 0 to cnt - 1 do
            let c = order.(j) in
            add best.(c);
            best.(c) <- dropped
          done
        else begin
          (* Rule 2: join the nearest sampled cluster, plus one edge
             to every strictly closer cluster. *)
          let c_join = !join in
          let e = best.(c_join) in
          next_cluster.(v) <- c_join;
          add e;
          for j = 0 to cnt - 1 do
            let c = order.(j) in
            if c <> c_join && closer best.(c) e then begin
              add best.(c);
              best.(c) <- dropped
            end
          done;
          best.(c_join) <- dropped
        end;
        drop_marked v;
        for j = 0 to cnt - 1 do
          best.(touched.(j)) <- -1
        done
      end
    done;
    Array.blit next_cluster 0 cluster 0 n;
    (* Intra-cluster edges are never needed again. *)
    for v = 0 to n - 1 do
      let c = cluster.(v) in
      if c >= 0 then
        for s = first.(v) to first.(v + 1) - 1 do
          if is_alive s && cluster.(nbr.(s)) = c then discard s
        done
    done
  done;
  (* Phase 2: every vertex connects once to each adjacent surviving
     cluster. *)
  for v = 0 to n - 1 do
    let cnt = adjacent_clusters v in
    for j = 0 to cnt - 1 do
      let c = order.(j) in
      add best.(c);
      best.(c) <- -1
    done
  done;
  (* Each row lists its out-edges most recently added first. *)
  let source s = nbr.(twin.(s)) in
  let out_deg = Array.make n 0 in
  for j = 0 to !n_added - 1 do
    let v = source added.(j) in
    out_deg.(v) <- out_deg.(v) + 1
  done;
  let out_edges = Array.init n (fun v -> Array.make out_deg.(v) (0, 0)) in
  let spanner_edges = ref [] in
  for j = !n_added - 1 downto 0 do
    let s = added.(j) in
    let v = source s in
    let row = out_edges.(v) in
    row.(Array.length row - out_deg.(v)) <- (nbr.(s), lat.(s));
    out_deg.(v) <- out_deg.(v) - 1;
    spanner_edges := (v, nbr.(s), lat.(s)) :: !spanner_edges
  done;
  { base = g; spanner = Graph.of_edges ~n !spanner_edges; out_edges; k }

(* Measured 26.4 on Barabási–Albert, n = 2·10^4, attach 3, U[1,8],
   k = ⌈log₂ n⌉: ≈ 19.7 for the result (out-edge tuples and rows, the
   spanner's edge list and adjacency) and ≈ 6.7 for the boxed
   intermediates of the ≈ 2n [Rng.bernoulli] draws. *)
let minor_words_budget = 32

let orient ?out_degree_bound rng g ~k ~n_hat =
  Csr.of_oriented_spanner ?out_degree_bound (build rng g ~k ~n_hat ()).out_edges

let max_out_degree t = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 t.out_edges

let edge_count t = Graph.m t.spanner

let stretch t = Gossip_graph.Paths.stretch ~of_:t.spanner ~wrt:t.base
