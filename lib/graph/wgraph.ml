(** Weighted undirected multigraphs, functorized over the weight field.

    This is the substrate for every game in the repository. Nodes are dense
    integers [0 .. n-1]; edges carry a stable [id] used throughout the stack
    to identify strategies (paths are edge-id lists), subsidies (indexed by
    edge id) and tree memberships. Parallel edges are allowed (the lower
    bound constructions of Theorems 11 and 21 use them conceptually);
    self-loops are rejected because no cost-sharing path ever uses one. *)

module Make (F : Repro_field.Field.S) = struct
  type edge = { id : int; u : int; v : int; weight : F.t }

  type t = {
    n : int;
    edges : edge array;
    adj : (int * int) list array; (* adj.(x) = (edge id, other endpoint) list *)
  }

  let n_nodes g = g.n
  let n_edges g = Array.length g.edges

  (** [create ~n spec] builds a graph on nodes [0..n-1] from a list of
      [(u, v, weight)] triples. Edge ids follow the order of [spec]. *)
  let create ~n spec =
    if n <= 0 then invalid_arg "Wgraph.create: need at least one node";
    let edges =
      List.mapi
        (fun id (u, v, weight) ->
          if u < 0 || u >= n || v < 0 || v >= n then
            invalid_arg "Wgraph.create: endpoint out of range";
          if u = v then invalid_arg "Wgraph.create: self-loop";
          if F.sign weight < 0 then invalid_arg "Wgraph.create: negative weight";
          { id; u; v; weight })
        spec
      |> Array.of_list
    in
    let adj = Array.make n [] in
    Array.iter
      (fun e ->
        adj.(e.u) <- (e.id, e.v) :: adj.(e.u);
        adj.(e.v) <- (e.id, e.u) :: adj.(e.v))
      edges;
    (* Keep adjacency in edge-id order for deterministic traversals. *)
    Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
    { n; edges; adj }

  let edge g id =
    if id < 0 || id >= Array.length g.edges then invalid_arg "Wgraph.edge: bad id";
    g.edges.(id)

  let weight g id = (edge g id).weight
  let endpoints g id =
    let e = edge g id in
    (e.u, e.v)

  (** The endpoint of edge [id] that is not [x]. *)
  let other g id x =
    let e = edge g id in
    if e.u = x then e.v
    else if e.v = x then e.u
    else invalid_arg "Wgraph.other: node not an endpoint"

  let neighbors g x = g.adj.(x)

  let total_weight g ids =
    List.fold_left (fun acc id -> F.add acc (weight g id)) F.zero ids

  let fold_edges g ~init ~f = Array.fold_left f init g.edges

  (** [with_weights g f] is a copy of [g] where edge [e] weighs [f e]. Ids,
      endpoints and adjacency are preserved. *)
  let with_weights g f =
    let edges = Array.map (fun e -> { e with weight = f e }) g.edges in
    { g with edges }

  (* ---------------------------------------------------------------- *)
  (* Connectivity                                                      *)
  (* ---------------------------------------------------------------- *)

  let component_count g =
    let uf = Union_find.create g.n in
    Array.iter (fun e -> ignore (Union_find.union uf e.u e.v)) g.edges;
    Union_find.components uf

  let is_connected g = component_count g = 1

  (* ---------------------------------------------------------------- *)
  (* Minimum spanning trees                                            *)
  (* ---------------------------------------------------------------- *)

  (** Kruskal's algorithm. Returns the edge ids of a minimum spanning tree,
      or [None] if the graph is disconnected. Ties are broken by edge id, so
      the result is deterministic. *)
  let mst_kruskal g =
    let order = Array.init (n_edges g) (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = F.compare g.edges.(a).weight g.edges.(b).weight in
        if c <> 0 then c else compare a b)
      order;
    let uf = Union_find.create g.n in
    let chosen = ref [] in
    Array.iter
      (fun id ->
        let e = g.edges.(id) in
        if Union_find.union uf e.u e.v then chosen := id :: !chosen)
      order;
    if Union_find.components uf = 1 then Some (List.sort compare !chosen) else None

  (** Prim's algorithm (heap-based); used to cross-check Kruskal in tests. *)
  let mst_prim g =
    if g.n = 1 then Some []
    else begin
      let in_tree = Array.make g.n false in
      let heap = Repro_util.Heap.create ~cmp:(fun (w1, id1, _) (w2, id2, _) ->
          let c = F.compare w1 w2 in
          if c <> 0 then c else compare id1 id2)
      in
      let chosen = ref [] in
      let visit x =
        in_tree.(x) <- true;
        List.iter
          (fun (id, y) ->
            if not in_tree.(y) then
              Repro_util.Heap.push heap (g.edges.(id).weight, id, y))
          g.adj.(x)
      in
      visit 0;
      let count = ref 1 in
      let rec grow () =
        match Repro_util.Heap.pop heap with
        | None -> ()
        | Some (_, id, y) ->
            if not in_tree.(y) then begin
              chosen := id :: !chosen;
              incr count;
              visit y
            end;
            grow ()
      in
      grow ();
      if !count = g.n then Some (List.sort compare !chosen) else None
    end

  (* ---------------------------------------------------------------- *)
  (* Shortest paths                                                    *)
  (* ---------------------------------------------------------------- *)

  type sssp = { dist : F.t option array; pred_edge : int option array }

  (* Monomorphic binary heap for Dijkstra: keys in a flat [F.t] array
     (dynamically an unboxed float array for the float field) and nodes
     in an [int] array, ordered by (key, node) — the exact total order
     the old polymorphic tuple heap used, so the pop sequence and hence
     the predecessor choices are unchanged. No tuple allocation per push
     on the separation-oracle hot loop. The scratch is per-domain (DLS):
     concurrent oracle sweeps on a [Parallel.Pool] each get their own.
     [dijkstra] is accordingly not reentrant within a domain (no caller
     runs it from inside a [weight_fn]). *)
  type heap_scratch = {
    mutable keys : F.t array;
    mutable nodes : int array;
    mutable hn : int;
    (* Full Dijkstra scratch (same DLS slot): distances are valid only
       where [reached] is set, [pred] is -1 for none, and [touched]
       records the reached nodes so the next run resets in O(touched)
       instead of O(n). Nothing here escapes: the public [sssp] is built
       on demand, and [shortest_path] walks [pred] directly. *)
    mutable dist : F.t array;
    mutable reached : Bytes.t;
    mutable pred : int array;
    mutable touched : int array;
    mutable n_touched : int;
    mutable settled : int; (* nodes settled by the last search *)
    mutable grows : int; (* scratch reallocations, for the reuse tests *)
  }

  let heap_key =
    Domain.DLS.new_key (fun () ->
        {
          keys = [||];
          nodes = [||];
          hn = 0;
          dist = [||];
          reached = Bytes.empty;
          pred = [||];
          touched = [||];
          n_touched = 0;
          settled = 0;
          grows = 0;
        })

  (* Grow the node-indexed scratch to >= n and clear the previous run's
     reached marks. Fresh buffers start clear; reused ones are cleared
     through the touched list. *)
  let dij_reset h n =
    if Array.length h.dist < n then begin
      let cap = max n (max 16 (2 * Array.length h.dist)) in
      h.dist <- Array.make cap F.zero;
      h.reached <- Bytes.make cap '\000';
      h.pred <- Array.make cap (-1);
      h.touched <- Array.make cap 0;
      h.n_touched <- 0;
      h.grows <- h.grows + 1
    end
    else begin
      for k = 0 to h.n_touched - 1 do
        Bytes.unsafe_set h.reached (Array.unsafe_get h.touched k) '\000'
      done;
      h.n_touched <- 0
    end

  let[@inline] dij_reached h x = Bytes.unsafe_get h.reached x <> '\000'

  let[@inline] dij_mark h x =
    Bytes.unsafe_set h.reached x '\001';
    Array.unsafe_set h.touched h.n_touched x;
    h.n_touched <- h.n_touched + 1

  let dijkstra_scratch_grows () = (Domain.DLS.get heap_key).grows
  let last_settled () = (Domain.DLS.get heap_key).settled

  let heap_less h i j =
    let c = F.compare h.keys.(i) h.keys.(j) in
    if c <> 0 then c < 0 else h.nodes.(i) < h.nodes.(j)

  let heap_swap h i j =
    let k = h.keys.(i) in
    h.keys.(i) <- h.keys.(j);
    h.keys.(j) <- k;
    let m = h.nodes.(i) in
    h.nodes.(i) <- h.nodes.(j);
    h.nodes.(j) <- m

  let heap_push h d x =
    (if h.hn = Array.length h.keys then begin
       let cap = max 16 (2 * h.hn) in
       let keys = Array.make cap F.zero and nodes = Array.make cap 0 in
       Array.blit h.keys 0 keys 0 h.hn;
       Array.blit h.nodes 0 nodes 0 h.hn;
       h.keys <- keys;
       h.nodes <- nodes
     end);
    h.keys.(h.hn) <- d;
    h.nodes.(h.hn) <- x;
    h.hn <- h.hn + 1;
    let i = ref (h.hn - 1) in
    let up = ref true in
    while !up && !i > 0 do
      let p = (!i - 1) / 2 in
      if heap_less h !i p then begin
        heap_swap h !i p;
        i := p
      end
      else up := false
    done

  let rec heap_sift_down h i =
    let l = (2 * i) + 1 in
    if l < h.hn then begin
      let s = if l + 1 < h.hn && heap_less h (l + 1) l then l + 1 else l in
      if heap_less h s i then begin
        heap_swap h i s;
        heap_sift_down h s
      end
    end

  (* How a [search] ended. *)
  type stop = Exhausted | Settled_dst | Hit_limit

  (** Dijkstra from [src]. [weight_fn] lets callers reinterpret weights
      (this is how best responses price deviations, and how the LP (1)
      separation oracle builds the graph H_i); it must be non-negative.
      Settled nodes are detected lazily: a popped entry whose key is
      already beaten by the recorded distance is stale and skipped, which
      replaces both the [final] array and decrease-key. *)
  (* The zero-allocation core: runs entirely on the per-domain scratch
     (valid until the next run on this domain). It stops early at the
     first settled node that is [dst] ([-1]: none) or, given a [limit],
     whose key [d] has [not (F.lt d limit)]. Neither stop changes the
     heap or relax order, so whatever it has settled — [dst] and its
     whole predecessor chain — is exactly what the run to exhaustion
     would have settled: with non-negative weights a settled key is
     final, and later relaxations only replace a distance on a strict
     improvement. Keys pop in non-decreasing order, so once one fails
     the bound every later one does too. *)
  let search wf g ~src ~dst ~limit =
    let h = Domain.DLS.get heap_key in
    h.hn <- 0;
    h.settled <- 0;
    dij_reset h g.n;
    h.dist.(src) <- F.zero;
    h.pred.(src) <- -1;
    dij_mark h src;
    heap_push h F.zero src;
    let stop = ref Exhausted in
    while (match !stop with Exhausted -> h.hn > 0 | _ -> false) do
      let d = h.keys.(0) and x = h.nodes.(0) in
      h.hn <- h.hn - 1;
      if h.hn > 0 then begin
        h.keys.(0) <- h.keys.(h.hn);
        h.nodes.(0) <- h.nodes.(h.hn);
        heap_sift_down h 0
      end;
      let stale = if dij_reached h x then F.compare h.dist.(x) d < 0 else true in
      if not stale then begin
        h.settled <- h.settled + 1;
        if match limit with Some l -> not (F.lt d l) | None -> false then stop := Hit_limit
        else if x = dst then stop := Settled_dst
        else
          List.iter
            (fun (id, y) ->
              let w = wf g.edges.(id) in
              assert (F.sign w >= 0);
              let nd = F.add d w in
              let better =
                if dij_reached h y then F.compare nd h.dist.(y) < 0 else true
              in
              if better then begin
                if not (dij_reached h y) then dij_mark h y;
                h.dist.(y) <- nd;
                h.pred.(y) <- id;
                heap_push h nd y
              end)
            g.adj.(x)
      end
    done;
    (h, !stop)

  let weight_of = function Some f -> f | None -> fun e -> e.weight

  let dijkstra ?weight_fn g ~src =
    let h, _ = search (weight_of weight_fn) g ~src ~dst:(-1) ~limit:None in
    let dist = Array.make g.n None in
    let pred_edge = Array.make g.n None in
    for x = 0 to g.n - 1 do
      if dij_reached h x then begin
        dist.(x) <- Some h.dist.(x);
        if h.pred.(x) >= 0 then pred_edge.(x) <- Some h.pred.(x)
      end
    done;
    { dist; pred_edge }

  (** Extract the edge-id path [src -> dst] from a Dijkstra run rooted at
      [src]. Returns the path cost and the edges in travel order. *)
  let extract_path g (sssp : sssp) ~src ~dst =
    match sssp.dist.(dst) with
    | None -> None
    | Some d ->
        let rec walk x acc =
          if x = src then acc
          else
            match sssp.pred_edge.(x) with
            | None -> acc (* x = src already handled; unreachable otherwise *)
            | Some id ->
                let y = other g id x in
                walk y (id :: acc)
        in
        Some (d, walk dst [])

  (* The settled [dst]'s cost and path, walked off the scratch: the path
     list is the only allocation besides field arithmetic. *)
  let settled_path g h ~src ~dst =
    let rec walk x acc =
      if x = src then acc
      else
        let id = h.pred.(x) in
        if id < 0 then acc else walk (other g id x) (id :: acc)
    in
    (h.dist.(dst), walk dst [])

  let shortest_path ?weight_fn g ~src ~dst =
    match search (weight_of weight_fn) g ~src ~dst ~limit:None with
    | h, Settled_dst -> Some (settled_path g h ~src ~dst)
    | _ -> None

  type bounded = Reached of F.t * int list | Pruned | Unreachable

  let shortest_path_bounded ?weight_fn g ~src ~dst ~limit =
    match search (weight_of weight_fn) g ~src ~dst ~limit:(Some limit) with
    | h, Settled_dst ->
        let d, path = settled_path g h ~src ~dst in
        Reached (d, path)
    | _, Hit_limit -> Pruned
    | _, Exhausted -> Unreachable

  (* ---------------------------------------------------------------- *)
  (* Rooted spanning trees                                             *)
  (* ---------------------------------------------------------------- *)

  module Tree = struct
    type graph = t

    type t = {
      graph : graph;
      root : int;
      parent : int array; (* -1 at the root *)
      parent_edge : int array; (* -1 at the root *)
      children : int list array;
      order : int array; (* BFS order from the root *)
      depth : int array;
      subtree_size : int array;
      in_tree : bool array; (* indexed by edge id *)
    }

    (** Build a rooted spanning tree from a set of edge ids. Raises
        [Invalid_argument] when the edges do not form a spanning tree. *)
    let of_edge_ids g ~root ids =
      let n = g.n in
      if List.length ids <> n - 1 then
        invalid_arg "Tree.of_edge_ids: a spanning tree has n-1 edges";
      let in_tree = Array.make (n_edges g) false in
      List.iter (fun id -> in_tree.(id) <- true) ids;
      let parent = Array.make n (-1) in
      let parent_edge = Array.make n (-1) in
      let children = Array.make n [] in
      let depth = Array.make n 0 in
      let visited = Array.make n false in
      let order = Array.make n root in
      let queue = Queue.create () in
      Queue.add root queue;
      visited.(root) <- true;
      let count = ref 0 in
      while not (Queue.is_empty queue) do
        let x = Queue.pop queue in
        order.(!count) <- x;
        incr count;
        List.iter
          (fun (id, y) ->
            if in_tree.(id) && not visited.(y) then begin
              visited.(y) <- true;
              parent.(y) <- x;
              parent_edge.(y) <- id;
              children.(x) <- y :: children.(x);
              depth.(y) <- depth.(x) + 1;
              Queue.add y queue
            end)
          g.adj.(x)
      done;
      if !count <> n then invalid_arg "Tree.of_edge_ids: edges do not span the graph";
      Array.iteri (fun i l -> children.(i) <- List.rev l) children;
      let subtree_size = Array.make n 1 in
      for i = n - 1 downto 1 do
        let x = order.(i) in
        subtree_size.(parent.(x)) <- subtree_size.(parent.(x)) + subtree_size.(x)
      done;
      { graph = g; root; parent; parent_edge; children; order; depth; subtree_size; in_tree }

    let root t = t.root
    let parent t x = if t.parent.(x) < 0 then None else Some t.parent.(x)
    let parent_edge t x = if t.parent_edge.(x) < 0 then None else Some t.parent_edge.(x)
    let children t x = t.children.(x)
    let depth t x = t.depth.(x)
    let mem_edge t id = t.in_tree.(id)
    let order t = t.order

    let edge_ids t =
      Array.to_list t.order
      |> List.filter_map (fun x -> if t.parent_edge.(x) >= 0 then Some t.parent_edge.(x) else None)
      |> List.sort compare

    (** Number of broadcast players whose root path uses the tree edge
        [id] — the size of the subtree hanging below it; [0] for non-tree
        edges. This is n_a(T) in the paper. *)
    let usage t id =
      if not t.in_tree.(id) then 0
      else begin
        let e = t.graph.edges.(id) in
        (* The lower endpoint is the one whose parent edge is [id]. *)
        if t.parent_edge.(e.u) = id then t.subtree_size.(e.u)
        else t.subtree_size.(e.v)
      end

    (** The child-side endpoint of a tree edge. *)
    let lower_endpoint t id =
      if not t.in_tree.(id) then invalid_arg "Tree.lower_endpoint: not a tree edge";
      let e = t.graph.edges.(id) in
      if t.parent_edge.(e.u) = id then e.u else e.v

    (** Edge ids on the path from [x] up to the root, nearest edge first. *)
    let path_to_root t x =
      let rec go x acc =
        if t.parent.(x) < 0 then List.rev acc else go t.parent.(x) (t.parent_edge.(x) :: acc)
      in
      go x []

    let lca t x y =
      let rec lift x d = if t.depth.(x) > d then lift t.parent.(x) d else x in
      let x = lift x t.depth.(y) and y = lift y t.depth.(x) in
      let rec meet x y = if x = y then x else meet t.parent.(x) t.parent.(y) in
      meet x y

    (** Edge ids on the tree path from [x] to [y]: first the edges from [x]
        up to the LCA (in travel order), then from the LCA down to [y]. *)
    let path_between t x y =
      let a = lca t x y in
      let rec up x acc = if x = a then List.rev acc else up t.parent.(x) (t.parent_edge.(x) :: acc) in
      let rec down y acc = if y = a then acc else down t.parent.(y) (t.parent_edge.(y) :: acc) in
      up x [] @ down y []

    let total_weight t = total_weight t.graph (edge_ids t)

    (** Nodes in the subtree rooted at [x] (including [x]). *)
    let subtree_nodes t x =
      let rec go x acc = List.fold_left (fun acc c -> go c acc) (x :: acc) t.children.(x) in
      go x []
  end

  (* ---------------------------------------------------------------- *)
  (* Spanning-tree enumeration                                         *)
  (* ---------------------------------------------------------------- *)

  module Enumerate = struct
    (** Fold [f] over every spanning tree of [g] (as a sorted edge-id list).
        Include/exclude search with a rollback union-find; intended for the
        small instances on which exact prices of stability are computed. *)
    let fold_spanning_trees g ~init ~f =
      let m = n_edges g in
      let target = g.n - 1 in
      let uf = Union_find.Rollback.create g.n in
      let acc = ref init in
      let chosen = ref [] in
      let rec go i count =
        if count = target then acc := f !acc (List.rev !chosen)
        else if i < m && m - i >= target - count then begin
          let e = g.edges.(i) in
          if Union_find.Rollback.union uf e.u e.v then begin
            chosen := i :: !chosen;
            go (i + 1) (count + 1);
            chosen := List.tl !chosen;
            Union_find.Rollback.undo uf
          end;
          go (i + 1) count
        end
      in
      go 0 0;
      !acc

    let count_spanning_trees g = fold_spanning_trees g ~init:0 ~f:(fun n _ -> n + 1)

    let iter_spanning_trees g ~f = fold_spanning_trees g ~init:() ~f:(fun () t -> f t)

    (* -------------------------------------------------------------- *)
    (* Weight-ordered (best-first) enumeration                         *)
    (* -------------------------------------------------------------- *)

    type order_stats = {
      mutable nodes_expanded : int; (* subproblems popped and branched *)
      mutable msts_computed : int; (* MST completions across all children *)
    }

    let fresh_stats () = { nodes_expanded = 0; msts_computed = 0 }

    (* A subproblem of the Lawler partition: the spanning trees containing
       every [forced] edge and no [excluded] edge, represented by its
       minimum such tree [ids] of weight [w]. *)
    type subproblem = {
      w : F.t;
      ids : int list; (* sorted; the representative (minimum) tree *)
      forced : int list;
      excluded : int list;
    }

    (** Every spanning tree of [g], in nondecreasing total weight
        (ties broken by the sorted edge-id list, lexicographically — the
        same order [fold_spanning_trees] visits a tied class in). Lawler's
        partition scheme over include/exclude subproblems: each heap entry
        carries the minimum spanning tree of its subproblem (Kruskal on the
        graph with forced edges contracted and excluded edges deleted), so
        popping in bound order streams trees cheapest-first and a consumer
        searching for the first tree satisfying a monotone predicate can
        stop as soon as the stream's weight passes its incumbent.

        The sequence is ephemeral (backed by a mutable heap): traverse it
        once. Cost: one Kruskal completion per child of each popped tree
        (at most n-1 per tree), against one LP per tree for the pricing
        consumers — generation is never the bottleneck. *)
    let by_weight ?stats g : (F.t * int list) Seq.t =
      let m = n_edges g in
      let target = g.n - 1 in
      let tick_node () =
        match stats with Some s -> s.nodes_expanded <- s.nodes_expanded + 1 | None -> ()
      and tick_mst () =
        match stats with Some s -> s.msts_computed <- s.msts_computed + 1 | None -> ()
      in
      (* Kruskal scan order, fixed once: (weight, id) — the same tie-break
         as [mst_kruskal], so the root representative is the MST. *)
      let order = Array.init m (fun i -> i) in
      Array.sort
        (fun a b ->
          let c = F.compare g.edges.(a).weight g.edges.(b).weight in
          if c <> 0 then c else compare a b)
        order;
      let out = Array.make m false (* scratch exclusion mask *) in
      (* Minimum spanning tree of a subproblem: union the forced edges
         (contraction), then greedily complete; [None] when the forced
         edges close a cycle or the remaining graph is disconnected. *)
      let complete ~forced ~excluded =
        tick_mst ();
        List.iter (fun id -> out.(id) <- true) excluded;
        let uf = Union_find.create g.n in
        let bad = ref false in
        List.iter
          (fun id ->
            let e = g.edges.(id) in
            if not (Union_find.union uf e.u e.v) then bad := true)
          forced;
        let chosen = ref [] in
        let count = ref (List.length forced) in
        if not !bad then
          Array.iter
            (fun id ->
              if !count < target && not out.(id) then begin
                let e = g.edges.(id) in
                if Union_find.union uf e.u e.v then begin
                  chosen := id :: !chosen;
                  incr count
                end
              end)
            order;
        List.iter (fun id -> out.(id) <- false) excluded;
        if !bad || !count <> target then None
        else
          let ids = List.sort compare (List.rev_append !chosen forced) in
          Some (total_weight g ids, ids)
      in
      let heap =
        Repro_util.Heap.create ~cmp:(fun a b ->
            let c = F.compare a.w b.w in
            if c <> 0 then c else compare a.ids b.ids)
      in
      (match complete ~forced:[] ~excluded:[] with
      | Some (w, ids) -> Repro_util.Heap.push heap { w; ids; forced = []; excluded = [] }
      | None -> ());
      let rec next () =
        match Repro_util.Heap.pop heap with
        | None -> Seq.Nil
        | Some node ->
            tick_node ();
            (* Branch on the representative's free (not yet forced) edges:
               child k keeps the first k-1 free edges and bans the k-th —
               a partition of the subproblem minus its representative. *)
            let free = List.filter (fun id -> not (List.mem id node.forced)) node.ids in
            let rec branch forced = function
              | [] -> ()
              | e :: rest ->
                  let excluded = e :: node.excluded in
                  (match complete ~forced ~excluded with
                  | Some (w, ids) -> Repro_util.Heap.push heap { w; ids; forced; excluded }
                  | None -> ());
                  branch (e :: forced) rest
            in
            branch node.forced free;
            Seq.Cons ((node.w, node.ids), next)
      in
      next
  end

  (* ---------------------------------------------------------------- *)
  (* Generators                                                        *)
  (* ---------------------------------------------------------------- *)

  module Gen = struct
    (** Path 0 - 1 - ... - (n-1); edge i joins i and i+1. *)
    let path ~n ~weight = create ~n (List.init (n - 1) (fun i -> (i, i + 1, weight i)))

    (** Cycle on n nodes; edge i joins i and (i+1) mod n. *)
    let cycle ~n ~weight =
      if n < 3 then invalid_arg "Gen.cycle: need at least 3 nodes";
      create ~n (List.init n (fun i -> (i, (i + 1) mod n, weight i)))

    (** Star with center 0 and leaves 1..n-1. *)
    let star ~n ~weight = create ~n (List.init (n - 1) (fun i -> (0, i + 1, weight i)))

    let complete ~n ~weight =
      let spec = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          spec := (u, v, weight u v) :: !spec
        done
      done;
      create ~n (List.rev !spec)

    let grid ~rows ~cols ~weight =
      let n = rows * cols in
      let id r c = (r * cols) + c in
      let spec = ref [] in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          if c + 1 < cols then spec := (id r c, id r (c + 1), weight (id r c) (id r (c + 1))) :: !spec;
          if r + 1 < rows then spec := (id r c, id (r + 1) c, weight (id r c) (id (r + 1) c)) :: !spec
        done
      done;
      create ~n (List.rev !spec)

    (** Random connected graph: a uniform random recursive tree plus
        [extra_edges] additional distinct non-tree edges. Weights are drawn
        by [rand_weight]. Deterministic given the generator state. *)
    let random_connected rng ~n ~extra_edges ~rand_weight =
      if n < 2 then invalid_arg "Gen.random_connected: need at least 2 nodes";
      let spec = ref [] in
      let present = Hashtbl.create (2 * n) in
      let add u v =
        let key = (min u v, max u v) in
        if u <> v && not (Hashtbl.mem present key) then begin
          Hashtbl.add present key ();
          spec := (u, v, rand_weight rng) :: !spec;
          true
        end
        else false
      in
      for v = 1 to n - 1 do
        ignore (add v (Repro_util.Prng.int rng v))
      done;
      let max_extra = (n * (n - 1) / 2) - (n - 1) in
      let wanted = min extra_edges max_extra in
      let added = ref 0 in
      while !added < wanted do
        let u = Repro_util.Prng.int rng n and v = Repro_util.Prng.int rng n in
        if add u v then incr added
      done;
      create ~n (List.rev !spec)
  end
end

(** Pre-instantiated float and exact-rational graph stacks. *)
module Float_graph = Make (Repro_field.Field.Float_field)
module Rat_graph = Make (Repro_field.Field.Rat)
