(** Baswana–Sen spanner construction with edge orientation
    (Appendix D; Lemma 13).

    For a parameter [k], the algorithm computes a [(2k-1)]-spanner in
    [k] iterations of randomized cluster sampling.  Following the
    paper's modification, every spanner edge is {e oriented}: it is an
    out-edge of the vertex whose rule added it, and with
    [k = Θ(log n)] each vertex's out-degree is [O(log n)] w.h.p. —
    the property RR Broadcast's running time rests on (Lemma 15).

    Edge weights are the latencies; ties are broken by endpoint ids so
    weights are effectively distinct, as [7] requires.  Cluster
    sampling uses the estimate [n̂] of [n] ([n <= n̂ <= n^c]); Lemma 13
    shows the out-degree only degrades to [O(n̂^(1/k) log n)]. *)

type t = {
  base : Gossip_graph.Graph.t;  (** the spanned graph *)
  spanner : Gossip_graph.Graph.t;  (** spanner as an undirected graph *)
  out_edges : (Gossip_graph.Graph.node * int) array array;
      (** [out_edges.(v)] are the oriented [(peer, latency)] edges
          added by [v], most recently added first (see {!build}) *)
  k : int;
}

(** [build rng g ~k ?n_hat ()] runs the construction.  [n_hat]
    defaults to [n].  Requires [k >= 1]; [k = 1] yields the graph
    itself.

    {b Out-edge order.}  RR Broadcast walks each [out_edges.(v)] in
    order, so the order is part of the result.  Row [v] lists its
    edges most recently added first.  Within one step, node [v] scans
    its alive edges in a fixed order: by bucket [Hashtbl.hash x land
    (b - 1)] of the peer [x] ascending, then by peer id descending,
    where [b] is 16 doubled while [v]'s degree in [g] exceeds [2b].
    Each step adds at most one edge per adjacent cluster, in the same
    kind of order over cluster ids: bucket of [Hashtbl.hash c] ascending
    (with [b] sized by the number of adjacent clusters), then the
    cluster first met last.  This is the order seed-0 Stdlib hash
    tables give, but it is computed, not inherited: the result
    depends on [rng], [g], [k] and [n_hat] only, never on the
    runtime's hashtable seed ([OCAMLRUNPARAM=R]).  Random draws
    happen one per cluster per sampling iteration, in node order. *)
val build :
  Gossip_util.Rng.t -> Gossip_graph.Graph.t -> k:int -> ?n_hat:int -> unit -> t

(** The asserted ceiling on minor-heap words one {!build} allocates per
    edge of its input, on a sparse graph with [k = ⌈log₂ n⌉].  The
    construction itself works in flat arrays (large ones go straight
    to the major heap); what the minor heap sees is the result, whose
    size is bounded by the input's edges, and the random draws.
    Exported so the tests assert the same number. *)
val minor_words_budget : int

(** [ceil_log2 x] is [⌈log₂ x⌉], at least 1: the canonical stretch
    parameter [k] for [n̂ = x]. *)
val ceil_log2 : int -> int

(** [orient ?out_degree_bound rng g ~k ~n_hat] is the orientation of
    [build rng g ~k ~n_hat ()] packed by
    {!Gossip_scale.Csr.of_oriented_spanner} (which checks
    [out_degree_bound] when given): the contact structure an RR
    Broadcast kernel runs over. *)
val orient :
  ?out_degree_bound:int ->
  Gossip_util.Rng.t ->
  Gossip_graph.Graph.t ->
  k:int ->
  n_hat:int ->
  Gossip_scale.Csr.oriented

(** [max_out_degree t] is [Δ_out] over the orientation. *)
val max_out_degree : t -> int

(** [edge_count t] is the number of spanner edges. *)
val edge_count : t -> int

(** [stretch t] is the multiplicative stretch of the spanner w.r.t.
    its base graph (should be [<= 2k - 1]). *)
val stretch : t -> float
