(* Tests for the network design game engine: costs, potential, best
   responses, equilibrium checks (the general Dijkstra-based check vs the
   Lemma 2 broadcast fast path — their agreement on random games is the key
   property), best-response dynamics, and the exact equilibrium landscape. *)

module Gm = Repro_game.Game.Float_game
module G = Gm.G
module Prng = Repro_util.Prng

let fl = Alcotest.float 1e-9

(* The classic two-link example: root r = 0, player node 1, parallel edges
   of weight 1 and 2. *)
let two_link () = G.create ~n:2 [ (0, 1, 1.0); (0, 1, 2.0) ]

(* Shared-highway example: three terminals can each use a private edge of
   weight 1 to the root, or reach a hub through a 0.3 spoke and share the
   1.2 hub-root edge. Both all-private and all-shared are equilibria of the
   3-player game; sharing is socially cheaper. *)
let shared_vs_private () =
  (* Nodes: 0 = root; 1, 2, 3 = terminals; 4 = hub.
     Edge ids: 0-2 = private (i,0) w 1; 3-5 = spokes (i,4) w 0.3;
     6 = hub edge (4,0) w 1.2. *)
  G.create ~n:5
    [
      (1, 0, 1.0); (2, 0, 1.0); (3, 0, 1.0);
      (1, 4, 0.3); (2, 4, 0.3); (3, 4, 0.3);
      (4, 0, 1.2);
    ]

(* The 3-player (non-broadcast) game on the same graph: the hub is shared
   infrastructure, not a player. *)
let three_player_spec () =
  Gm.create ~graph:(shared_vs_private ()) ~pairs:[| (1, 0); (2, 0); (3, 0) |]

let random_broadcast seed =
  let rng = Prng.create seed in
  let n = Prng.int_in_range rng ~lo:3 ~hi:8 in
  let extra = Prng.int rng 6 in
  let graph =
    G.Gen.random_connected rng ~n ~extra_edges:extra
      ~rand_weight:(fun rng -> float_of_int (Prng.int_in_range rng ~lo:0 ~hi:12))
  in
  (graph, Prng.int rng n)

let random_subsidy rng (graph : G.t) =
  Array.init (G.n_edges graph) (fun id ->
      if Prng.bool rng then 0.0 else Prng.float rng (G.weight graph id))

let unit_tests =
  [
    Alcotest.test_case "broadcast spec enumerates non-root nodes" `Quick (fun () ->
        let spec = Gm.broadcast ~graph:(shared_vs_private ()) ~root:0 in
        Alcotest.(check int) "players" 4 (Gm.n_players spec);
        Alcotest.(check int) "player of node 3" 2 (Gm.broadcast_player ~root:0 3);
        Alcotest.check_raises "root has no player"
          (Invalid_argument "Game.broadcast_player: root has no player") (fun () ->
            ignore (Gm.broadcast_player ~root:0 0)));
    Alcotest.test_case "create validates terminals" `Quick (fun () ->
        let g = two_link () in
        Alcotest.check_raises "same endpoints"
          (Invalid_argument "Game.create: source equals target") (fun () ->
            ignore (Gm.create ~graph:g ~pairs:[| (1, 1) |])));
    Alcotest.test_case "player costs share edge weights" `Quick (fun () ->
        let g = shared_vs_private () in
        let spec = Gm.broadcast ~graph:g ~root:0 in
        (* All three terminals (and the hub player) share the hub edge. *)
        let state = [| [ 3; 6 ]; [ 4; 6 ]; [ 5; 6 ]; [ 6 ] |] in
        Gm.validate_state spec state;
        Alcotest.check fl "terminal pays 0.3 + 1.2/4" 0.6 (Gm.player_cost spec state 0);
        Alcotest.check fl "hub player pays 1.2/4" 0.3 (Gm.player_cost spec state 3);
        Alcotest.check fl "social cost counts edges once" 2.1 (Gm.social_cost spec state));
    Alcotest.test_case "subsidies reduce player cost but not social cost" `Quick (fun () ->
        let g = shared_vs_private () in
        let spec = Gm.broadcast ~graph:g ~root:0 in
        let state = [| [ 3; 6 ]; [ 4; 6 ]; [ 5; 6 ]; [ 6 ] |] in
        let subsidy = Gm.no_subsidy spec in
        subsidy.(6) <- 0.6;
        Alcotest.check fl "half-subsidized hub" 0.45 (Gm.player_cost ~subsidy spec state 0);
        Alcotest.check fl "social cost unchanged" 2.1 (Gm.social_cost spec state));
    Alcotest.test_case "Rosenthal potential on a shared edge" `Quick (fun () ->
        let g = shared_vs_private () in
        let spec = Gm.broadcast ~graph:g ~root:0 in
        let state = [| [ 3; 6 ]; [ 4; 6 ]; [ 5; 6 ]; [ 6 ] |] in
        (* Phi = 3 * 0.3 * H_1 + 1.2 * H_4 = 0.9 + 1.2 * 25/12 = 3.4. *)
        Alcotest.check fl "potential" 3.4 (Gm.potential spec state));
    Alcotest.test_case "best response prices deviation shares" `Quick (fun () ->
        let spec = three_player_spec () in
        (* Everyone private, hub idle: deviating to the hub costs
           0.3 + 1.2/1 = 1.5 > 1, and cutting across a neighbour's spoke
           costs 0.3 + 0.3 + 1/2 = 1.1 > 1: stay. *)
        let state = [| [ 0 ]; [ 1 ]; [ 2 ] |] in
        let cost, path = Gm.best_response spec state 0 in
        Alcotest.check fl "stay on the private edge" 1.0 cost;
        Alcotest.(check (list int)) "private path" [ 0 ] path;
        (* With the other two already on the hub, joining costs
           0.3 + 1.2/3 = 0.7 < 1. *)
        let state = [| [ 0 ]; [ 4; 6 ]; [ 5; 6 ] |] in
        let cost, path = Gm.best_response spec state 0 in
        Alcotest.check fl "join the hub" 0.7 cost;
        Alcotest.(check (list int)) "hub path" [ 3; 6 ] path);
    Alcotest.test_case "equilibrium detection on the two-link game" `Quick (fun () ->
        let g = two_link () in
        let spec = Gm.broadcast ~graph:g ~root:0 in
        Alcotest.(check bool) "cheap edge is an equilibrium" true
          (Gm.is_equilibrium spec [| [ 0 ] |]);
        Alcotest.(check bool) "expensive edge is not" false
          (Gm.is_equilibrium spec [| [ 1 ] |]);
        match Gm.worst_violation spec [| [ 1 ] |] with
        | Some (i, cur, dev, path) ->
            Alcotest.(check int) "player" 0 i;
            Alcotest.check fl "current" 2.0 cur;
            Alcotest.check fl "deviation" 1.0 dev;
            Alcotest.(check (list int)) "deviating path" [ 0 ] path
        | None -> Alcotest.fail "expected a violation");
    Alcotest.test_case "subsidies can enforce the expensive edge" `Quick (fun () ->
        let g = two_link () in
        let spec = Gm.broadcast ~graph:g ~root:0 in
        let subsidy = Gm.no_subsidy spec in
        subsidy.(1) <- 1.0;
        (* Net weight 1 vs 1: deviation no longer strictly better. *)
        Alcotest.(check bool) "enforced" true (Gm.is_equilibrium ~subsidy spec [| [ 1 ] |]));
    Alcotest.test_case "both equilibria of shared_vs_private are found" `Quick (fun () ->
        let spec = three_player_spec () in
        let all_private = [| [ 0 ]; [ 1 ]; [ 2 ] |] in
        let all_shared = [| [ 3; 6 ]; [ 4; 6 ]; [ 5; 6 ] |] in
        Alcotest.(check bool) "all-private is an equilibrium" true
          (Gm.is_equilibrium spec all_private);
        Alcotest.(check bool) "all-shared is an equilibrium" true
          (Gm.is_equilibrium spec all_shared);
        Alcotest.check fl "private social cost" 3.0 (Gm.social_cost spec all_private);
        Alcotest.check fl "shared social cost" 2.1 (Gm.social_cost spec all_shared));
    Alcotest.test_case "best-response dynamics converge to an equilibrium" `Quick (fun () ->
        let g = shared_vs_private () in
        let spec = Gm.broadcast ~graph:g ~root:0 in
        (* Start from a mixed profile. *)
        let start = [| [ 0 ]; [ 4; 6 ]; [ 2 ]; [ 6 ] |] in
        let out = Gm.Dynamics.best_response_dynamics spec start in
        Alcotest.(check bool) "converged" true out.converged;
        Alcotest.(check bool) "final state is an equilibrium" true
          (Gm.is_equilibrium spec out.state));
    Alcotest.test_case "tree equilibrium check via Lemma 2" `Quick (fun () ->
        let g = shared_vs_private () in
        let spec = Gm.broadcast ~graph:g ~root:0 in
        (* All-private + one spoke: the terminal at node 2 pays 1 and can
           cut across to node 1's private edge for 0.3 + 0.15 + 1/3 < 1. *)
        let tree_private = G.Tree.of_edge_ids g ~root:0 [ 0; 1; 2; 3 ] in
        Alcotest.(check bool) "all-private tree is not an equilibrium" false
          (Gm.Broadcast.is_tree_equilibrium spec tree_private);
        let tree_shared = G.Tree.of_edge_ids g ~root:0 [ 3; 4; 5; 6 ] in
        Alcotest.(check bool) "all-shared tree is an equilibrium" true
          (Gm.Broadcast.is_tree_equilibrium spec tree_shared));
    Alcotest.test_case "exact landscape of shared_vs_private" `Quick (fun () ->
        let l = Gm.Exact.equilibrium_landscape ~graph:(shared_vs_private ()) ~root:0 in
        (* MST = three spokes + one private edge = 0.9 + 1.0 = 1.9. *)
        Alcotest.check fl "mst weight" 1.9 l.mst_weight;
        (match l.best_equilibrium with
        | Some (w, _) -> Alcotest.check fl "best equilibrium" 1.9 w
        | None -> Alcotest.fail "no equilibrium found");
        (match l.worst_equilibrium with
        | Some (w, _) -> Alcotest.check fl "worst equilibrium" 2.1 w
        | None -> Alcotest.fail "no equilibrium found");
        match Gm.Exact.price_of_stability ~graph:(shared_vs_private ()) ~root:0 with
        | Some pos -> Alcotest.check fl "PoS is 1 here" 1.0 pos
        | None -> Alcotest.fail "PoS undefined");
    Alcotest.test_case "validate_state rejects broken paths" `Quick (fun () ->
        let g = two_link () in
        let spec = Gm.broadcast ~graph:g ~root:0 in
        Alcotest.check_raises "wrong arity"
          (Invalid_argument "Game.validate_state: wrong number of strategies") (fun () ->
            Gm.validate_state spec [||]);
        Alcotest.check_raises "dangling"
          (Invalid_argument "Game.validate_state: path does not reach target") (fun () ->
            Gm.validate_state spec [| [] |]));
  ]

let prop ?(count = 40) name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name (QCheck2.Gen.int_range 0 1_000_000) f)

let property_tests =
  [
    prop "Lemma 2 tree check agrees with the general equilibrium check" (fun seed ->
        let graph, root = random_broadcast seed in
        let spec = Gm.broadcast ~graph ~root in
        let rng = Prng.create (seed + 17) in
        let ok = ref true in
        (* Check several spanning trees, with and without random subsidies. *)
        let trees = ref [] in
        G.Enumerate.iter_spanning_trees graph ~f:(fun t -> trees := t :: !trees);
        let trees = Array.of_list !trees in
        for _ = 1 to min 6 (Array.length trees) do
          let ids = trees.(Prng.int rng (Array.length trees)) in
          let tree = G.Tree.of_edge_ids graph ~root ids in
          let state = Gm.Broadcast.state_of_tree spec ~root tree in
          let subsidy = if Prng.bool rng then None else Some (random_subsidy rng graph) in
          let fast = Gm.Broadcast.is_tree_equilibrium ?subsidy spec tree in
          let slow = Gm.is_equilibrium ?subsidy spec state in
          if fast <> slow then ok := false
        done;
        !ok);
    prop "best response never exceeds the current cost" (fun seed ->
        let graph, root = random_broadcast seed in
        let spec = Gm.broadcast ~graph ~root in
        let ids = Option.get (G.mst_kruskal graph) in
        let tree = G.Tree.of_edge_ids graph ~root ids in
        let state = Gm.Broadcast.state_of_tree spec ~root tree in
        let ok = ref true in
        for i = 0 to Gm.n_players spec - 1 do
          let cost, _ = Gm.best_response spec state i in
          if not (Repro_util.Floatx.leq cost (Gm.player_cost spec state i)) then ok := false
        done;
        !ok);
    prop "improving moves strictly decrease the Rosenthal potential" (fun seed ->
        let graph, root = random_broadcast seed in
        let spec = Gm.broadcast ~graph ~root in
        let ids = Option.get (G.mst_kruskal graph) in
        let tree = G.Tree.of_edge_ids graph ~root ids in
        let state = Gm.Broadcast.state_of_tree spec ~root tree in
        let ok = ref true in
        for i = 0 to Gm.n_players spec - 1 do
          let before_cost = Gm.player_cost spec state i in
          let cost, path = Gm.best_response spec state i in
          if Repro_util.Floatx.lt cost before_cost then begin
            let phi_before = Gm.potential spec state in
            let state' = Array.copy state in
            state'.(i) <- path;
            let phi_after = Gm.potential spec state' in
            (* Potential drop equals the player's cost drop. *)
            if not (Repro_util.Floatx.approx_eq ~eps:1e-6 (phi_before -. phi_after) (before_cost -. cost))
            then ok := false
          end
        done;
        !ok);
    prop "BR dynamics from the MST converge and end in an equilibrium" (fun seed ->
        let graph, root = random_broadcast seed in
        let spec = Gm.broadcast ~graph ~root in
        let ids = Option.get (G.mst_kruskal graph) in
        let tree = G.Tree.of_edge_ids graph ~root ids in
        let state = Gm.Broadcast.state_of_tree spec ~root tree in
        let out = Gm.Dynamics.best_response_dynamics spec state in
        out.converged && Gm.is_equilibrium spec out.state);
    prop ~count:25 "PoS bounds: 1 <= PoS <= H_n (Anshelevich et al.)" (fun seed ->
        let graph, root = random_broadcast seed in
        match Gm.Exact.price_of_stability ~graph ~root with
        | None -> false (* Rosenthal guarantees a tree equilibrium exists *)
        | Some pos ->
            let n = G.n_nodes graph - 1 in
            Repro_util.Floatx.geq pos 1.0
            && Repro_util.Floatx.leq pos (Repro_util.Harmonic.h n));
    prop ~count:25 "the Rosenthal potential minimizer is an equilibrium" (fun seed ->
        (* The argument behind existence (and behind Anshelevich et al.'s
           H_n bound): a state locally minimizing the potential admits no
           improving move. Check the global minimizer over spanning
           trees. *)
        let graph, root = random_broadcast seed in
        let spec = Gm.broadcast ~graph ~root in
        let best = ref None in
        G.Enumerate.iter_spanning_trees graph ~f:(fun ids ->
            let tree = G.Tree.of_edge_ids graph ~root ids in
            let state = Gm.Broadcast.state_of_tree spec ~root tree in
            let phi = Gm.potential spec state in
            match !best with
            | Some (p, _) when p <= phi -> ()
            | _ -> best := Some (phi, state));
        (match !best with
        | Some (_, state) -> Gm.is_equilibrium spec state
        | None -> false));
    prop ~count:25 "social cost equals the sum of player costs" (fun seed ->
        let graph, root = random_broadcast seed in
        let spec = Gm.broadcast ~graph ~root in
        let ids = Option.get (G.mst_kruskal graph) in
        let tree = G.Tree.of_edge_ids graph ~root ids in
        let state = Gm.Broadcast.state_of_tree spec ~root tree in
        let total = ref 0.0 in
        for i = 0 to Gm.n_players spec - 1 do
          total := !total +. Gm.player_cost spec state i
        done;
        Repro_util.Floatx.approx_eq ~eps:1e-6 !total (Gm.social_cost spec state));
  ]

(* [improving_response] against its definition, [(player_cost,
   best_response)] compared with [F.lt], over either field: integer edge
   weights, subsidies w * k/997 (so every value is exact in both fields),
   tree states and states of unrelated random paths, broadcast and
   random-pair games. On [Some] the cost and path must be exactly equal. *)
module Improving_diff (F : Repro_field.Field.S) = struct
  module Gf = Repro_game.Game.Make (F)
  module Gg = Gf.G

  (* A broadcast game (with its root) or a game of random pairs. *)
  let random_game rng =
    let n = Prng.int_in_range rng ~lo:2 ~hi:9 in
    let graph =
      Gg.Gen.random_connected rng ~n ~extra_edges:(Prng.int rng 8) ~rand_weight:(fun rng ->
          F.of_int (Prng.int_in_range rng ~lo:0 ~hi:12))
    in
    let root = Prng.int rng n in
    if Prng.bool rng then (Gf.broadcast ~graph ~root, Some root)
    else
      let pair _ =
        let s = Prng.int rng n in
        (s, (s + 1 + Prng.int rng (n - 1)) mod n)
      in
      (Gf.create ~graph ~pairs:(Array.init (Prng.int_in_range rng ~lo:1 ~hi:6) pair), None)

  (* Cheapest path under random positive weights: a simple path that no
     other player's path needs to agree with. *)
  let random_path rng (graph : Gg.t) ~src ~dst =
    let noisy = Gg.with_weights graph (fun _ -> F.of_int (1 + Prng.int rng 20)) in
    snd (Option.get (Gg.shortest_path noisy ~src ~dst))

  (* Half the broadcast games get a random spanning tree's state. *)
  let random_state rng (spec : Gf.spec) broadcast_root =
    let graph = spec.Gf.graph in
    match broadcast_root with
    | Some root when Prng.bool rng ->
        let noisy = Gg.with_weights graph (fun _ -> F.of_int (Prng.int rng 50)) in
        let tree = Gg.Tree.of_edge_ids graph ~root (Option.get (Gg.mst_kruskal noisy)) in
        Gf.Broadcast.state_of_tree spec ~root tree
    | _ -> Array.map (fun (src, dst) -> random_path rng graph ~src ~dst) spec.Gf.pairs

  let random_subsidy rng (graph : Gg.t) =
    Array.init (Gg.n_edges graph) (fun id ->
        if Prng.bool rng then F.zero
        else F.mul (Gg.weight graph id) (F.of_q (Prng.int rng 998) 997))

  let agrees seed =
    let rng = Prng.create seed in
    let spec, root = random_game rng in
    let state = random_state rng spec root in
    let subsidy = random_subsidy rng spec.Gf.graph in
    let usage = Gf.usage spec state in
    let prices = Gf.sweep_prices ~subsidy spec ~usage in
    let ok = ref true in
    for i = 0 to Gf.n_players spec - 1 do
      let current = Gf.player_cost ~subsidy spec state i in
      let cost, path = Gf.best_response ~subsidy spec state i in
      match (Gf.improving_response prices spec state i, F.lt cost current) with
      | None, false -> ()
      | Some (c, p), true -> if not (F.equal c cost && p = path) then ok := false
      | _ -> ok := false
    done;
    !ok
end

module Float_diff = Improving_diff (Repro_field.Field.Float_field)
module Rat_diff = Improving_diff (Repro_field.Field.Rat)

let improving_tests =
  [
    prop ~count:150 "float improving_response = best_response + lt" Float_diff.agrees;
    prop ~count:100 "rational improving_response = best_response + lt" Rat_diff.agrees;
    Alcotest.test_case "improving_response on the two-link game" `Quick (fun () ->
        let spec = Gm.broadcast ~graph:(two_link ()) ~root:0 in
        let state = [| [ 1 ] |] in
        let prices = Gm.sweep_prices spec ~usage:(Gm.usage spec state) in
        Alcotest.(check (option (pair fl (list int))))
          "the cheap edge improves" (Some (1.0, [ 0 ]))
          (Gm.improving_response prices spec state 0);
        let state = [| [ 0 ] |] in
        let prices = Gm.sweep_prices spec ~usage:(Gm.usage spec state) in
        Alcotest.(check (option (pair fl (list int))))
          "no improvement" None
          (Gm.improving_response prices spec state 0));
    Alcotest.test_case "improving_response keeps the disconnection error" `Quick (fun () ->
        (* Node 3 is isolated; its player's recorded path (edge 0) costs
           it 1, so the bounded search exhausts {3} below the bound. *)
        let graph = G.create ~n:4 [ (0, 1, 2.0); (0, 2, 3.0) ] in
        let spec = Gm.create ~graph ~pairs:[| (1, 0); (2, 0); (3, 0) |] in
        let state = [| [ 0 ]; [ 1 ]; [ 0 ] |] in
        let prices = Gm.sweep_prices spec ~usage:(Gm.usage spec state) in
        Alcotest.(check bool) "connected players are fine" true
          (Gm.improving_response prices spec state 0 = None);
        Alcotest.check_raises "cut-off player"
          (Invalid_argument "Game.improving_response: graph disconnects a player")
          (fun () -> ignore (Gm.improving_response prices spec state 2)));
    Alcotest.test_case "own_mask marks exactly the player's edges" `Quick (fun () ->
        let spec = three_player_spec () in
        let state = [| [ 0 ]; [ 4; 6 ]; [ 5; 6 ] |] in
        let marked i =
          let mask = Gm.own_mask spec state i in
          List.filter (fun id -> Bytes.get mask id <> '\000') (List.init 7 Fun.id)
        in
        Alcotest.(check (list int)) "player 1" [ 4; 6 ] (marked 1);
        Alcotest.(check (list int)) "player 0, previous marks cleared" [ 0 ] (marked 0);
        Alcotest.(check (list int)) "player 2" [ 5; 6 ] (marked 2));
  ]

let suite = unit_tests @ property_tests @ improving_tests
