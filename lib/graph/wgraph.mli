(** Weighted undirected multigraphs, functorized over the weight field.

    The substrate of every game in the repository. Nodes are dense integers
    [0 .. n-1]; edges carry a stable [id] used throughout the stack to
    identify strategies (paths are edge-id lists), subsidies (edge-indexed
    arrays) and tree membership. Parallel edges are allowed; self-loops and
    negative weights are rejected. *)

module Make (F : Repro_field.Field.S) : sig
  type edge = { id : int; u : int; v : int; weight : F.t }

  type t = {
    n : int;
    edges : edge array;
    adj : (int * int) list array; (** adj.(x) = (edge id, other endpoint) *)
  }

  val n_nodes : t -> int
  val n_edges : t -> int

  (** [create ~n spec] builds a graph on nodes [0..n-1] from [(u, v, w)]
      triples; edge ids follow the order of [spec]. Raises
      [Invalid_argument] on out-of-range endpoints, self-loops or negative
      weights. *)
  val create : n:int -> (int * int * F.t) list -> t

  (** Raises [Invalid_argument] on a bad id. *)
  val edge : t -> int -> edge

  val weight : t -> int -> F.t
  val endpoints : t -> int -> int * int

  (** The endpoint of the edge that is not the given node. *)
  val other : t -> int -> int -> int

  (** Edge-id-sorted [(edge id, neighbour)] list. *)
  val neighbors : t -> int -> (int * int) list

  val total_weight : t -> int list -> F.t
  val fold_edges : t -> init:'a -> f:('a -> edge -> 'a) -> 'a

  (** Copy with reweighted edges (ids and adjacency preserved). *)
  val with_weights : t -> (edge -> F.t) -> t

  (** {1 Connectivity} *)

  val component_count : t -> int
  val is_connected : t -> bool

  (** {1 Minimum spanning trees} *)

  (** Kruskal; sorted edge ids of a deterministic MST, [None] if
      disconnected. *)
  val mst_kruskal : t -> int list option

  (** Prim (heap-based); used to cross-check Kruskal in the tests. *)
  val mst_prim : t -> int list option

  (** {1 Shortest paths} *)

  type sssp = { dist : F.t option array; pred_edge : int option array }

  (** Dijkstra from [src]; [weight_fn] reprices edges (must stay
      non-negative) — this is how best responses price deviation shares. *)
  val dijkstra : ?weight_fn:(edge -> F.t) -> t -> src:int -> sssp

  (** Path extraction from a Dijkstra run rooted at [src]: cost and edge
      ids in travel order. *)
  val extract_path : t -> sssp -> src:int -> dst:int -> (F.t * int list) option

  (** Cheapest [src -> dst] path: cost and edge ids in travel order,
      [None] when unreachable. Stops as soon as [dst] is settled; the
      cost and path are exactly those of [dijkstra] + [extract_path]. *)
  val shortest_path :
    ?weight_fn:(edge -> F.t) -> t -> src:int -> dst:int -> (F.t * int list) option

  (** Outcome of {!shortest_path_bounded}. [Reached] carries the same
      cost and path as {!shortest_path}; [Pruned] means the search hit
      the bound first, [Unreachable] that it exhausted [src]'s component
      without settling [dst]. *)
  type bounded = Reached of F.t * int list | Pruned | Unreachable

  (** {!shortest_path} that also stops at the first settled key [d] with
      [not (F.lt d limit)]. Keys settle in non-decreasing order and
      weights are non-negative, so [Reached (cost, _)] is returned
      exactly when the cheapest path has [F.lt cost limit] (for the
      float field [F.lt] cannot turn true again as its left argument
      grows past the tolerance band; over rationals it is exact). *)
  val shortest_path_bounded :
    ?weight_fn:(edge -> F.t) -> t -> src:int -> dst:int -> limit:F.t -> bounded

  (** Nodes settled by this domain's last search (any of the three
      entry points), read once per search by the separation counters. *)
  val last_settled : unit -> int

  (** Reallocation count of the per-domain Dijkstra scratch (this
      domain); a zero delta across runs proves scratch reuse. *)
  val dijkstra_scratch_grows : unit -> int

  (** {1 Rooted spanning trees} *)

  module Tree : sig
    type graph := t

    type t = {
      graph : graph;
      root : int;
      parent : int array; (** -1 at the root *)
      parent_edge : int array; (** -1 at the root *)
      children : int list array;
      order : int array; (** BFS order from the root *)
      depth : int array;
      subtree_size : int array;
      in_tree : bool array; (** indexed by edge id *)
    }

    (** Build a rooted spanning tree from edge ids; raises
        [Invalid_argument] when they do not form one. *)
    val of_edge_ids : graph -> root:int -> int list -> t

    val root : t -> int
    val parent : t -> int -> int option
    val parent_edge : t -> int -> int option
    val children : t -> int -> int list
    val depth : t -> int -> int
    val mem_edge : t -> int -> bool
    val order : t -> int array

    (** Sorted ids of the tree's edges. *)
    val edge_ids : t -> int list

    (** n_a(T): broadcast players whose root path uses the edge — the
        subtree size below it; 0 for non-tree edges. *)
    val usage : t -> int -> int

    (** The child-side endpoint of a tree edge. *)
    val lower_endpoint : t -> int -> int

    (** Edge ids from a node up to the root, nearest first. *)
    val path_to_root : t -> int -> int list

    val lca : t -> int -> int -> int

    (** Tree path between two nodes: up to the LCA, then down. *)
    val path_between : t -> int -> int -> int list

    val total_weight : t -> F.t

    (** Nodes of the subtree rooted at a node (inclusive). *)
    val subtree_nodes : t -> int -> int list
  end

  (** {1 Spanning-tree enumeration} (include/exclude with rollback
      union-find; exponential — small instances) *)

  module Enumerate : sig
    val fold_spanning_trees : t -> init:'a -> f:('a -> int list -> 'a) -> 'a
    val count_spanning_trees : t -> int
    val iter_spanning_trees : t -> f:(int list -> unit) -> unit

    (** Search-effort counters for {!by_weight}. *)
    type order_stats = {
      mutable nodes_expanded : int;  (** subproblems popped and branched *)
      mutable msts_computed : int;  (** MST completions across all children *)
    }

    val fresh_stats : unit -> order_stats

    (** Every spanning tree as [(weight, sorted edge ids)], in nondecreasing
        weight (ties in sorted-edge-id lexicographic order). Lawler
        partition with include/exclude branching: each subproblem is
        represented by its minimum spanning tree, computed by Kruskal with
        the forced edges contracted and the excluded edges deleted, so the
        stream is cheapest-first and consumers can stop early. The sequence
        is ephemeral (mutable heap underneath): traverse it once. *)
    val by_weight : ?stats:order_stats -> t -> (F.t * int list) Seq.t
  end

  (** {1 Generators} (deterministic given the PRNG state) *)

  module Gen : sig
    (** Path 0 - 1 - ... - (n-1); edge i joins i and i+1. *)
    val path : n:int -> weight:(int -> F.t) -> t

    (** Cycle; edge i joins i and (i+1) mod n; needs n >= 3. *)
    val cycle : n:int -> weight:(int -> F.t) -> t

    (** Star with center 0. *)
    val star : n:int -> weight:(int -> F.t) -> t

    val complete : n:int -> weight:(int -> int -> F.t) -> t
    val grid : rows:int -> cols:int -> weight:(int -> int -> F.t) -> t

    (** Random recursive tree plus [extra_edges] distinct shortcuts. *)
    val random_connected :
      Repro_util.Prng.t ->
      n:int ->
      extra_edges:int ->
      rand_weight:(Repro_util.Prng.t -> F.t) ->
      t
  end
end

(** Pre-instantiated float and exact-rational graph stacks. *)
module Float_graph : module type of Make (Repro_field.Field.Float_field)

module Rat_graph : module type of Make (Repro_field.Field.Rat)
