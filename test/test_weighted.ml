(* Tests for weighted network design games (the Section 6 extension):
   consistency with the unweighted engine at unit demands, demand-dependent
   sharing, best responses, the tree check vs the general check, and the
   weighted SNE LP. *)

module Gm = Repro_game.Game.Float_game
module W = Repro_game.Weighted.Float_weighted
module G = Gm.G
module Sne = Repro_core.Sne_lp.Float
module Instances = Repro_core.Instances
module Prng = Repro_util.Prng
module Fx = Repro_util.Floatx

let fl = Alcotest.float 1e-9

(* Two parallel routes shared by two players of different demand. *)
let two_route () = G.create ~n:2 [ (0, 1, 3.0); (0, 1, 4.0) ]

let random_weighted seed =
  let rng = Prng.create seed in
  let n = Prng.int_in_range rng ~lo:3 ~hi:7 in
  let graph =
    G.Gen.random_connected rng ~n ~extra_edges:(Prng.int rng 5)
      ~rand_weight:(fun rng -> float_of_int (Prng.int_in_range rng ~lo:1 ~hi:9))
  in
  let root = Prng.int rng n in
  let demand_of _ = float_of_int (Prng.int_in_range rng ~lo:1 ~hi:4) in
  (W.broadcast ~graph ~root ~demand_of, graph, root)

let unit_tests =
  [
    Alcotest.test_case "create validates demands" `Quick (fun () ->
        let g = two_route () in
        Alcotest.check_raises "wrong arity"
          (Invalid_argument "Weighted.create: one demand per player") (fun () ->
            ignore (W.create ~graph:g ~pairs:[| (1, 0) |] ~demand:[||]));
        Alcotest.check_raises "non-positive"
          (Invalid_argument "Weighted.create: demands must be positive") (fun () ->
            ignore (W.create ~graph:g ~pairs:[| (1, 0) |] ~demand:[| 0.0 |])));
    Alcotest.test_case "shares are proportional to demand" `Quick (fun () ->
        (* Two players at the same node pair, demands 1 and 3, sharing the
           weight-3 edge: they pay 3/4 and 9/4. *)
        let g = two_route () in
        let t = W.create ~graph:g ~pairs:[| (1, 0); (1, 0) |] ~demand:[| 1.0; 3.0 |] in
        let state = [| [ 0 ]; [ 0 ] |] in
        Alcotest.check fl "small player" 0.75 (W.player_cost t state 0);
        Alcotest.check fl "large player" 2.25 (W.player_cost t state 1);
        Alcotest.check fl "social cost" 3.0 (W.social_cost t state));
    Alcotest.test_case "best response anticipates own demand" `Quick (fun () ->
        (* Player of demand 3 alone on edge 0 (w 3) pays 3. Joining the
           other edge (w 4) where the demand-1 player sits costs
           4 * 3/4 = 3: not strictly better, so stay. *)
        let g = two_route () in
        let t = W.create ~graph:g ~pairs:[| (1, 0); (1, 0) |] ~demand:[| 3.0; 1.0 |] in
        let state = [| [ 0 ]; [ 1 ] |] in
        let cost, path = W.best_response t state 0 in
        Alcotest.check fl "stay" 3.0 cost;
        Alcotest.(check (list int)) "path" [ 0 ] path;
        (* The demand-1 player: pays 4 alone; moving to edge 0 with the big
           player costs 3 * 1/4 = 0.75. *)
        let cost, path = W.best_response t state 1 in
        Alcotest.check fl "move" 0.75 cost;
        Alcotest.(check (list int)) "path'" [ 0 ] path);
    Alcotest.test_case "subsidies lower weighted costs" `Quick (fun () ->
        let g = two_route () in
        let t = W.create ~graph:g ~pairs:[| (1, 0) |] ~demand:[| 2.0 |] in
        let subsidy = W.no_subsidy t in
        subsidy.(0) <- 1.5;
        Alcotest.check fl "half price" 1.5 (W.player_cost ~subsidy t [| [ 0 ] |] 0));
    Alcotest.test_case "weighted SNE LP enforces on the two-route game" `Quick (fun () ->
        (* One player of demand 2, target = the expensive route (weight 4):
           need 4 - b <= 3, so b = 1 (demand scales both sides equally). *)
        let g = two_route () in
        let t = W.broadcast ~graph:g ~root:0 ~demand_of:(fun _ -> 2.0) in
        let tree = G.Tree.of_edge_ids g ~root:0 [ 1 ] in
        let r = Sne.weighted_broadcast t ~root:0 tree in
        Alcotest.check fl "cost" 1.0 r.Sne.cost;
        Alcotest.(check bool) "enforces (tree check)" true
          (W.Broadcast.is_tree_equilibrium ~subsidy:r.Sne.subsidy t ~root:0 tree));
    Alcotest.test_case "demand skew changes the optimal subsidy" `Quick (fun () ->
        (* Line 0-1-2 (weights 2, 2) vs shortcut (0,2) weight 2.5 — the
           unweighted optimum was 0.5. Give node 2 demand 3 and node 1
           demand 1: player 2 pays (2-b1)*3/3 + 2*3/4 = shortcut tempts at
           2.5*3/3 = 2.5... the LP must still enforce. *)
        let graph = G.create ~n:3 [ (0, 1, 2.0); (1, 2, 2.0); (0, 2, 2.5) ] in
        let t =
          W.broadcast ~graph ~root:0 ~demand_of:(fun v -> if v = 2 then 3.0 else 1.0)
        in
        let tree = G.Tree.of_edge_ids graph ~root:0 [ 0; 1 ] in
        let r = Sne.weighted_broadcast t ~root:0 tree in
        Alcotest.(check bool) "enforces" true
          (W.Broadcast.is_tree_equilibrium ~subsidy:r.Sne.subsidy t ~root:0 tree);
        (* Compare against the unweighted optimum: the skew matters. *)
        let spec = Gm.broadcast ~graph ~root:0 in
        let unweighted = Sne.broadcast spec ~root:0 tree in
        Alcotest.(check bool) "differs from unweighted" true
          (not (Fx.approx_eq ~eps:1e-9 r.Sne.cost unweighted.Sne.cost)));
  ]

let prop ?(count = 40) name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name (QCheck2.Gen.int_range 0 1_000_000) f)

let property_tests =
  [
    prop "unit demands reproduce the unweighted game exactly" (fun seed ->
        let rng = Prng.create seed in
        let n = Prng.int_in_range rng ~lo:3 ~hi:7 in
        let graph =
          G.Gen.random_connected rng ~n ~extra_edges:(Prng.int rng 5)
            ~rand_weight:(fun rng -> float_of_int (Prng.int_in_range rng ~lo:1 ~hi:9))
        in
        let root = Prng.int rng n in
        let w = W.broadcast ~graph ~root ~demand_of:(fun _ -> 1.0) in
        let spec = Gm.broadcast ~graph ~root in
        let tree = G.Tree.of_edge_ids graph ~root (Option.get (G.mst_kruskal graph)) in
        let state = Gm.Broadcast.state_of_tree spec ~root tree in
        let ok = ref true in
        for i = 0 to Gm.n_players spec - 1 do
          if
            not
              (Fx.approx_eq (W.player_cost w state i) (Gm.player_cost spec state i))
          then ok := false;
          let wc, _ = W.best_response w state i in
          let gc, _ = Gm.best_response spec state i in
          if not (Fx.approx_eq wc gc) then ok := false
        done;
        !ok
        && W.is_equilibrium w state = Gm.is_equilibrium spec state
        && W.Broadcast.is_tree_equilibrium w ~root tree
           = Gm.Broadcast.is_tree_equilibrium spec tree);
    prop "weighted tree check is sound (a violation means no equilibrium)" (fun seed ->
        (* Lemma 2 does NOT extend to weighted games: the one-edge deviation
           family is necessary but not sufficient (see the next property),
           so only the sound direction is universal. *)
        let t, graph, root = random_weighted seed in
        let tree = G.Tree.of_edge_ids graph ~root (Option.get (G.mst_kruskal graph)) in
        let state = W.Broadcast.state_of_tree t ~root tree in
        W.Broadcast.is_tree_equilibrium t ~root tree || not (W.is_equilibrium t state));
    prop "weighted cutting plane enforces; one-edge LP is a relaxation of it" ~count:30
      (fun seed ->
        let t, graph, root = random_weighted seed in
        let tree = G.Tree.of_edge_ids graph ~root (Option.get (G.mst_kruskal graph)) in
        let state = W.Broadcast.state_of_tree t ~root tree in
        let exact, stats = Sne.weighted_cutting_plane t ~state in
        let relaxed = Sne.weighted_broadcast t ~root tree in
        stats.Sne.converged
        && W.is_equilibrium ~subsidy:exact.Sne.subsidy t state
        && Fx.leq relaxed.Sne.cost (exact.Sne.cost +. 1e-7)
        && Array.for_all2
             (fun b (e : G.edge) -> Fx.geq b 0.0 && Fx.leq b e.G.weight)
             exact.Sne.subsidy
             (Array.init (G.n_edges graph) (G.edge graph)));
    prop "Lemma 2's gap for weighted games is real (witness search)" ~count:1 (fun _ ->
        (* Seed 14's instance: the one-edge LP's optimum passes the tree
           check but a two-non-tree-edge deviation still improves — the
           reason weighted enforcement needs constraint generation. *)
        let t, graph, root = random_weighted 14 in
        let tree = G.Tree.of_edge_ids graph ~root (Option.get (G.mst_kruskal graph)) in
        let state = W.Broadcast.state_of_tree t ~root tree in
        let r = Sne.weighted_broadcast t ~root tree in
        W.Broadcast.is_tree_equilibrium ~subsidy:r.Sne.subsidy t ~root tree
        && not (W.is_equilibrium ~subsidy:r.Sne.subsidy t state));
    prop "weighted best response never exceeds the current cost" (fun seed ->
        let t, graph, root = random_weighted seed in
        let tree = G.Tree.of_edge_ids graph ~root (Option.get (G.mst_kruskal graph)) in
        let state = W.Broadcast.state_of_tree t ~root tree in
        let ok = ref true in
        for i = 0 to W.n_players t - 1 do
          let c, _ = W.best_response t state i in
          if not (Fx.leq c (W.player_cost t state i)) then ok := false
        done;
        !ok);
    prop ~count:80 "weighted improving_response = best_response + lt" (fun seed ->
        (* Random subsidies in [0, w] and, for half the cases, a state of
           random per-player paths instead of the MST's. *)
        let t, graph, root = random_weighted seed in
        let rng = Prng.create (seed + 5) in
        let state =
          if Prng.bool rng then
            W.Broadcast.state_of_tree t ~root
              (G.Tree.of_edge_ids graph ~root (Option.get (G.mst_kruskal graph)))
          else
            Array.map
              (fun (src, dst) ->
                let noisy = G.with_weights graph (fun _ -> float_of_int (1 + Prng.int rng 20)) in
                snd (Option.get (G.shortest_path noisy ~src ~dst)))
              t.W.base.Gm.pairs
        in
        let subsidy =
          Array.init (G.n_edges graph) (fun id -> Prng.float rng (G.weight graph id))
        in
        let prices = W.sweep_prices ~subsidy t ~du:(W.demand_usage t state) in
        let ok = ref true in
        for i = 0 to W.n_players t - 1 do
          let current = W.player_cost ~subsidy t state i in
          let cost, path = W.best_response ~subsidy t state i in
          let want = if Fx.lt cost current then Some (cost, path) else None in
          if W.improving_response prices t state i <> want then ok := false
        done;
        !ok);
  ]

let bounded_tests =
  [
    Alcotest.test_case "weighted improving_response keeps the disconnection error" `Quick
      (fun () ->
        let graph = G.create ~n:4 [ (0, 1, 2.0); (0, 2, 3.0) ] in
        let t = W.create ~graph ~pairs:[| (1, 0); (2, 0); (3, 0) |] ~demand:[| 1.0; 2.0; 1.0 |] in
        let state = [| [ 0 ]; [ 1 ]; [ 0 ] |] in
        let prices = W.sweep_prices t ~du:(W.demand_usage t state) in
        Alcotest.check_raises "cut-off player"
          (Invalid_argument "Weighted.improving_response: graph disconnects a player")
          (fun () -> ignore (W.improving_response prices t state 2)));
  ]

let suite = unit_tests @ property_tests @ bounded_tests
