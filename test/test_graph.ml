(* Tests for the graph substrate: structure validation, MST (Kruskal vs
   Prim cross-check), Dijkstra (vs Floyd-Warshall reference), rooted trees
   (paths, LCA, usage counts), spanning-tree enumeration (vs Cayley's
   formula), and generators. *)

module F = Repro_field.Field.Float_field
module G = Repro_graph.Wgraph.Float_graph
module Prng = Repro_util.Prng

let fl = Alcotest.float 1e-9

(* Reference all-pairs shortest paths. *)
let floyd_warshall (g : G.t) =
  let n = G.n_nodes g in
  let inf = Float.infinity in
  let d = Array.make_matrix n n inf in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0.0
  done;
  G.fold_edges g ~init:() ~f:(fun () e ->
      d.(e.G.u).(e.G.v) <- Float.min d.(e.G.u).(e.G.v) e.G.weight;
      d.(e.G.v).(e.G.u) <- Float.min d.(e.G.v).(e.G.u) e.G.weight);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) +. d.(k).(j) < d.(i).(j) then d.(i).(j) <- d.(i).(k) +. d.(k).(j)
      done
    done
  done;
  d

let random_graph seed =
  let rng = Prng.create seed in
  let n = Prng.int_in_range rng ~lo:2 ~hi:9 in
  let extra = Prng.int rng 8 in
  G.Gen.random_connected rng ~n ~extra_edges:extra
    ~rand_weight:(fun rng -> float_of_int (Prng.int_in_range rng ~lo:0 ~hi:20))

(* The same edges plus one isolated node, so some pairs are unreachable. *)
let with_isolated_node (g : G.t) =
  G.create ~n:(G.n_nodes g + 1)
    (Array.to_list (Array.map (fun (e : G.edge) -> (e.G.u, e.G.v, e.G.weight)) g.G.edges))

let diamond () =
  (* 0-1 (1), 0-2 (4), 1-2 (2), 1-3 (6), 2-3 (3) *)
  G.create ~n:4 [ (0, 1, 1.0); (0, 2, 4.0); (1, 2, 2.0); (1, 3, 6.0); (2, 3, 3.0) ]

let unit_tests =
  [
    Alcotest.test_case "create rejects bad input" `Quick (fun () ->
        Alcotest.check_raises "self-loop" (Invalid_argument "Wgraph.create: self-loop")
          (fun () -> ignore (G.create ~n:2 [ (0, 0, 1.0) ]));
        Alcotest.check_raises "range" (Invalid_argument "Wgraph.create: endpoint out of range")
          (fun () -> ignore (G.create ~n:2 [ (0, 2, 1.0) ]));
        Alcotest.check_raises "negative" (Invalid_argument "Wgraph.create: negative weight")
          (fun () -> ignore (G.create ~n:2 [ (0, 1, -1.0) ])));
    Alcotest.test_case "parallel edges are allowed and distinct" `Quick (fun () ->
        let g = G.create ~n:2 [ (0, 1, 1.0); (0, 1, 2.0) ] in
        Alcotest.(check int) "two edges" 2 (G.n_edges g);
        Alcotest.(check int) "adjacency sees both" 2 (List.length (G.neighbors g 0)));
    Alcotest.test_case "basic accessors" `Quick (fun () ->
        let g = diamond () in
        Alcotest.(check int) "n" 4 (G.n_nodes g);
        Alcotest.(check int) "m" 5 (G.n_edges g);
        Alcotest.check fl "weight" 2.0 (G.weight g 2);
        Alcotest.(check int) "other" 2 (G.other g 2 1);
        Alcotest.check fl "total" 11.0 (G.total_weight g [ 0; 1; 3 ]));
    Alcotest.test_case "connectivity" `Quick (fun () ->
        Alcotest.(check bool) "diamond" true (G.is_connected (diamond ()));
        let g = G.create ~n:4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
        Alcotest.(check bool) "split" false (G.is_connected g);
        Alcotest.(check int) "components" 2 (G.component_count g));
    Alcotest.test_case "MST on the diamond" `Quick (fun () ->
        match G.mst_kruskal (diamond ()) with
        | None -> Alcotest.fail "connected graph must have an MST"
        | Some ids ->
            Alcotest.check fl "weight" 6.0 (G.total_weight (diamond ()) ids);
            Alcotest.(check (list int)) "edges 0,2,4" [ 0; 2; 4 ] ids);
    Alcotest.test_case "MST of disconnected graph is None" `Quick (fun () ->
        let g = G.create ~n:4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
        Alcotest.(check bool) "kruskal" true (G.mst_kruskal g = None);
        Alcotest.(check bool) "prim" true (G.mst_prim g = None));
    Alcotest.test_case "bounded Dijkstra on the diamond" `Quick (fun () ->
        let g = diamond () in
        let bounded limit = G.shortest_path_bounded g ~src:0 ~dst:3 ~limit in
        Alcotest.(check bool) "below the limit" true (bounded 6.5 = G.Reached (6.0, [ 0; 2; 4 ]));
        Alcotest.(check bool) "at the limit" true (bounded 6.0 = G.Pruned);
        Alcotest.(check bool) "zero limit" true (bounded 0.0 = G.Pruned);
        let split = G.create ~n:4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
        Alcotest.(check bool) "unreachable" true
          (G.shortest_path_bounded split ~src:0 ~dst:3 ~limit:10.0 = G.Unreachable);
        Alcotest.(check bool) "pruned before the component is exhausted" true
          (G.shortest_path_bounded split ~src:0 ~dst:3 ~limit:0.5 = G.Pruned));
    Alcotest.test_case "Dijkstra on the diamond" `Quick (fun () ->
        let g = diamond () in
        match G.shortest_path g ~src:0 ~dst:3 with
        | None -> Alcotest.fail "path must exist"
        | Some (d, path) ->
            Alcotest.check fl "distance" 6.0 d;
            (* 0 -1-> 1 -2-> 2 -3-> 3 via edges 0, 2, 4 *)
            Alcotest.(check (list int)) "path" [ 0; 2; 4 ] path);
    Alcotest.test_case "Dijkstra with a custom weight function" `Quick (fun () ->
        let g = diamond () in
        (* Make everything cost 1 per hop: shortest hop path 0-1-3. *)
        let weight_fn (_ : G.edge) = 1.0 in
        match G.shortest_path ~weight_fn g ~src:0 ~dst:3 with
        | None -> Alcotest.fail "path must exist"
        | Some (d, path) ->
            Alcotest.check fl "hops" 2.0 d;
            Alcotest.(check int) "two edges" 2 (List.length path));
    Alcotest.test_case "Dijkstra handles zero-weight edges" `Quick (fun () ->
        let g = G.create ~n:3 [ (0, 1, 0.0); (1, 2, 0.0); (0, 2, 1.0) ] in
        match G.shortest_path g ~src:0 ~dst:2 with
        | Some (d, path) ->
            Alcotest.check fl "free ride" 0.0 d;
            Alcotest.(check (list int)) "path" [ 0; 1 ] path
        | None -> Alcotest.fail "path must exist");
    Alcotest.test_case "rooted tree structure" `Quick (fun () ->
        let g = diamond () in
        let tree = G.Tree.of_edge_ids g ~root:0 [ 0; 2; 4 ] in
        Alcotest.(check int) "depth 3" 3 (G.Tree.depth tree 3);
        Alcotest.(check (list int)) "path to root from 3" [ 4; 2; 0 ]
          (G.Tree.path_to_root tree 3);
        Alcotest.(check int) "usage of edge 0" 3 (G.Tree.usage tree 0);
        Alcotest.(check int) "usage of edge 2" 2 (G.Tree.usage tree 2);
        Alcotest.(check int) "usage of edge 4" 1 (G.Tree.usage tree 4);
        Alcotest.(check int) "usage of non-tree edge" 0 (G.Tree.usage tree 1);
        Alcotest.(check int) "lca(3,1)" 1 (G.Tree.lca tree 3 1);
        Alcotest.(check (list int)) "path between 3 and 1" [ 4; 2 ]
          (G.Tree.path_between tree 3 1);
        Alcotest.check fl "tree weight" 6.0 (G.Tree.total_weight tree);
        Alcotest.(check int) "subtree of 1" 3 (List.length (G.Tree.subtree_nodes tree 1)));
    Alcotest.test_case "of_edge_ids rejects non-trees" `Quick (fun () ->
        let g = diamond () in
        Alcotest.check_raises "too few"
          (Invalid_argument "Tree.of_edge_ids: a spanning tree has n-1 edges") (fun () ->
            ignore (G.Tree.of_edge_ids g ~root:0 [ 0; 2 ]));
        Alcotest.check_raises "cycle"
          (Invalid_argument "Tree.of_edge_ids: edges do not span the graph") (fun () ->
            ignore (G.Tree.of_edge_ids g ~root:0 [ 0; 1; 2 ])));
    Alcotest.test_case "spanning tree counts match known formulas" `Quick (fun () ->
        let unit _ = 1.0 in
        let unit2 _ _ = 1.0 in
        Alcotest.(check int) "cycle_5" 5
          (G.Enumerate.count_spanning_trees (G.Gen.cycle ~n:5 ~weight:unit));
        Alcotest.(check int) "path_6" 1
          (G.Enumerate.count_spanning_trees (G.Gen.path ~n:6 ~weight:unit));
        (* Cayley: n^(n-2). *)
        Alcotest.(check int) "K3" 3
          (G.Enumerate.count_spanning_trees (G.Gen.complete ~n:3 ~weight:unit2));
        Alcotest.(check int) "K4" 16
          (G.Enumerate.count_spanning_trees (G.Gen.complete ~n:4 ~weight:unit2));
        Alcotest.(check int) "K5" 125
          (G.Enumerate.count_spanning_trees (G.Gen.complete ~n:5 ~weight:unit2)));
    Alcotest.test_case "generators produce the advertised shapes" `Quick (fun () ->
        let rng = Prng.create 7 in
        let g =
          G.Gen.random_connected rng ~n:12 ~extra_edges:5
            ~rand_weight:(fun rng -> Prng.float rng 10.0)
        in
        Alcotest.(check int) "nodes" 12 (G.n_nodes g);
        Alcotest.(check int) "edges" 16 (G.n_edges g);
        Alcotest.(check bool) "connected" true (G.is_connected g);
        let grid = G.Gen.grid ~rows:3 ~cols:4 ~weight:(fun _ _ -> 1.0) in
        Alcotest.(check int) "grid nodes" 12 (G.n_nodes grid);
        Alcotest.(check int) "grid edges" 17 (G.n_edges grid);
        let star = G.Gen.star ~n:5 ~weight:(fun i -> float_of_int i) in
        Alcotest.(check int) "star edges" 4 (G.n_edges star));
    Alcotest.test_case "spanning trees of a parallel-edge multigraph" `Quick (fun () ->
        (* Two nodes joined by three parallel edges: exactly three spanning
           trees, one per edge. *)
        let g = G.create ~n:2 [ (0, 1, 1.0); (0, 1, 2.0); (0, 1, 3.0) ] in
        Alcotest.(check int) "three trees" 3 (G.Enumerate.count_spanning_trees g);
        let seen = ref [] in
        G.Enumerate.iter_spanning_trees g ~f:(fun t -> seen := t :: !seen);
        Alcotest.(check (list (list int))) "each single edge" [ [ 0 ]; [ 1 ]; [ 2 ] ]
          (List.sort compare !seen);
        (* MST picks the cheapest parallel edge. *)
        Alcotest.(check (option (list int))) "mst" (Some [ 0 ]) (G.mst_kruskal g));
    Alcotest.test_case "with_weights preserves structure" `Quick (fun () ->
        let g = diamond () in
        let g2 = G.with_weights g (fun e -> e.G.weight *. 2.0) in
        Alcotest.check fl "doubled" 8.0 (G.weight g2 1);
        Alcotest.(check int) "same edges" (G.n_edges g) (G.n_edges g2));
  ]

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:60 ~name gen f)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let is_spanning_tree g ids =
  List.length ids = G.n_nodes g - 1
  &&
  let uf = Repro_graph.Union_find.create (G.n_nodes g) in
  List.for_all
    (fun id ->
      let u, v = G.endpoints g id in
      Repro_graph.Union_find.union uf u v)
    ids

let property_tests =
  [
    prop "Kruskal and Prim agree on MST weight" seed_gen (fun seed ->
        let g = random_graph seed in
        match (G.mst_kruskal g, G.mst_prim g) with
        | Some k, Some p ->
            Repro_util.Floatx.approx_eq (G.total_weight g k) (G.total_weight g p)
        | _ -> false);
    prop "MST is a spanning tree" seed_gen (fun seed ->
        let g = random_graph seed in
        match G.mst_kruskal g with Some ids -> is_spanning_tree g ids | None -> false);
    prop "MST is minimum among all spanning trees" seed_gen (fun seed ->
        let g = random_graph seed in
        match G.mst_kruskal g with
        | None -> false
        | Some ids ->
            let w = G.total_weight g ids in
            G.Enumerate.fold_spanning_trees g ~init:true ~f:(fun ok t ->
                ok && Repro_util.Floatx.leq w (G.total_weight g t)));
    prop "Dijkstra agrees with Floyd-Warshall" seed_gen (fun seed ->
        let g = random_graph seed in
        let fw = floyd_warshall g in
        let ok = ref true in
        for src = 0 to G.n_nodes g - 1 do
          let sp = G.dijkstra g ~src in
          for dst = 0 to G.n_nodes g - 1 do
            match sp.G.dist.(dst) with
            | None -> if fw.(src).(dst) < Float.infinity then ok := false
            | Some d -> if not (Repro_util.Floatx.approx_eq d fw.(src).(dst)) then ok := false
          done
        done;
        !ok);
    prop "extracted shortest paths have the reported cost" seed_gen (fun seed ->
        let g = random_graph seed in
        let rng = Prng.create (seed + 1) in
        let src = Prng.int rng (G.n_nodes g) and dst = Prng.int rng (G.n_nodes g) in
        src = dst
        ||
        match G.shortest_path g ~src ~dst with
        | None -> false
        | Some (d, path) ->
            let walked = G.total_weight g path in
            Repro_util.Floatx.approx_eq d walked);
    prop "early-exit shortest_path = dijkstra + extract_path" seed_gen (fun seed ->
        (* The random repricing (zeros included) makes ties common. *)
        let g = with_isolated_node (random_graph seed) in
        let rng = Prng.create (seed + 2) in
        let price = Array.init (G.n_edges g) (fun _ -> float_of_int (Prng.int rng 6)) in
        let weight_fn (e : G.edge) = price.(e.G.id) in
        let ok = ref true in
        for src = 0 to G.n_nodes g - 1 do
          let sp = G.dijkstra ~weight_fn g ~src in
          for dst = 0 to G.n_nodes g - 1 do
            if G.shortest_path ~weight_fn g ~src ~dst <> G.extract_path g sp ~src ~dst then
              ok := false
          done
        done;
        !ok);
    prop "bounded search reaches exactly the paths below the limit" seed_gen (fun seed ->
        let g = with_isolated_node (random_graph seed) in
        let rng = Prng.create (seed + 3) in
        let n = G.n_nodes g in
        let src = Prng.int rng n and dst = Prng.int rng n in
        let limit = float_of_int (Prng.int rng 60) in
        match (G.shortest_path g ~src ~dst, G.shortest_path_bounded g ~src ~dst ~limit) with
        | Some (c, p), G.Reached (c', p') -> F.lt c limit && c = c' && p = p'
        | Some (c, _), G.Pruned -> not (F.lt c limit)
        | None, (G.Pruned | G.Unreachable) -> true
        | _ -> false);
    prop "every enumerated spanning tree is one, and the MST is among them" seed_gen
      (fun seed ->
        let g = random_graph seed in
        let all_ok =
          G.Enumerate.fold_spanning_trees g ~init:true ~f:(fun ok t ->
              ok && is_spanning_tree g t)
        in
        let mst = Option.get (G.mst_kruskal g) in
        let seen =
          G.Enumerate.fold_spanning_trees g ~init:false ~f:(fun seen t -> seen || t = mst)
        in
        all_ok && seen);
    prop "tree usages sum to total path length" seed_gen (fun seed ->
        let g = random_graph seed in
        let ids = Option.get (G.mst_kruskal g) in
        let tree = G.Tree.of_edge_ids g ~root:0 ids in
        (* sum_a usage(a) counts (node, ancestor-edge) pairs = sum of depths. *)
        let usage_sum = List.fold_left (fun acc id -> acc + G.Tree.usage tree id) 0 ids in
        let depth_sum = ref 0 in
        for v = 0 to G.n_nodes g - 1 do
          depth_sum := !depth_sum + G.Tree.depth tree v
        done;
        usage_sum = !depth_sum);
    prop "lca is the deepest common ancestor" seed_gen (fun seed ->
        let g = random_graph seed in
        let ids = Option.get (G.mst_kruskal g) in
        let tree = G.Tree.of_edge_ids g ~root:0 ids in
        let ancestors v =
          let rec go v acc =
            match G.Tree.parent tree v with None -> v :: acc | Some p -> go p (v :: acc)
          in
          go v []
        in
        let ok = ref true in
        for u = 0 to G.n_nodes g - 1 do
          for v = 0 to G.n_nodes g - 1 do
            let common =
              List.filter (fun a -> List.mem a (ancestors v)) (ancestors u)
            in
            let deepest =
              List.fold_left
                (fun best a -> if G.Tree.depth tree a > G.Tree.depth tree best then a else best)
                0 common
            in
            if G.Tree.lca tree u v <> deepest then ok := false
          done
        done;
        !ok);
    prop "rollback union-find undo restores component count" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let n = 12 in
        let uf = Repro_graph.Union_find.Rollback.create n in
        let before = Repro_graph.Union_find.Rollback.components uf in
        let performed = ref 0 in
        for _ = 1 to 20 do
          let u = Prng.int rng n and v = Prng.int rng n in
          if u <> v && Repro_graph.Union_find.Rollback.union uf u v then incr performed
        done;
        for _ = 1 to !performed do
          Repro_graph.Union_find.Rollback.undo uf
        done;
        Repro_graph.Union_find.Rollback.components uf = before);
  ]

let suite = unit_tests @ property_tests
