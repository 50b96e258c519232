(* Tests for the core subsidy algorithms.

   The load-bearing properties:
   - the three LP formulations (broadcast LP (3), polynomial LP (2),
     cutting-plane LP (1)) agree on the minimum subsidy cost and their
     assignments actually enforce the target (Theorem 1, Lemma 2);
   - the Theorem 6 construction stays under wgt(T)/e and enforces the MST;
   - the cycle family needs ~wgt(T)/e (Theorem 11);
   - exact all-or-nothing search, the greedy repair, and the Theorem 21
     path family behave as stated;
   - SND exact/heuristic solvers are consistent with the exact equilibrium
     landscape. *)

module Gm = Repro_game.Game.Float_game
module G = Gm.G
module Sne = Repro_core.Sne_lp.Float
module Enforce = Repro_core.Enforce
module Aon = Repro_core.Aon.Float
module Snd = Repro_core.Snd.Float
module Lb = Repro_core.Lower_bounds.Float
module Instances = Repro_core.Instances
module Fx = Repro_util.Floatx

let fl = Alcotest.float 1e-6
let inv_e = 1.0 /. Stdlib.exp 1.0

let random_instance seed =
  let n = 4 + (seed mod 6) in
  Instances.random ~dist:(Instances.Integer 9) ~n ~extra:(2 + (seed mod 4)) ~seed ()

let enforcement_valid graph (tree : G.Tree.t) subsidy =
  Array.for_all
    (fun (e : G.edge) ->
      Fx.geq subsidy.(e.G.id) 0.0
      && Fx.leq subsidy.(e.G.id) e.G.weight
      && (G.Tree.mem_edge tree e.G.id || Fx.approx_eq subsidy.(e.G.id) 0.0))
    (Array.init (G.n_edges graph) (G.edge graph))

let unit_tests =
  [
    Alcotest.test_case "LP (3) on the two-link game" `Quick (fun () ->
        (* Enforcing the expensive parallel edge needs exactly 1 unit. *)
        let graph = G.create ~n:2 [ (0, 1, 1.0); (0, 1, 2.0) ] in
        let spec = Gm.broadcast ~graph ~root:0 in
        let tree = G.Tree.of_edge_ids graph ~root:0 [ 1 ] in
        let r = Sne.broadcast spec ~root:0 tree in
        Alcotest.check fl "cost" 1.0 r.Sne.cost;
        Alcotest.check fl "subsidy on the expensive edge" 1.0 r.Sne.subsidy.(1);
        Alcotest.check fl "none elsewhere" 0.0 r.Sne.subsidy.(0));
    Alcotest.test_case "LP (3) gives zero subsidies on an equilibrium tree" `Quick
      (fun () ->
        let graph = G.create ~n:2 [ (0, 1, 1.0); (0, 1, 2.0) ] in
        let spec = Gm.broadcast ~graph ~root:0 in
        let tree = G.Tree.of_edge_ids graph ~root:0 [ 0 ] in
        let r = Sne.broadcast spec ~root:0 tree in
        Alcotest.check fl "already stable" 0.0 r.Sne.cost);
    Alcotest.test_case "LP (3) on a 3-node line vs shortcut" `Quick (fun () ->
        (* r=0 - v1 (w 2) - v2 (w 2), shortcut (0,2) w 2.5. Tree = line.
           Player v2 pays 2/2 + 2 = 3 > 2.5: must subsidize. Optimal: put b
           on the deep edge (1,2): (2-b)/1 + 2/2 <= 2.5 -> b >= 0.5. The
           shallow edge would need (2-b')/2 -> b' = 1. So opt = 0.5. *)
        let graph = G.create ~n:3 [ (0, 1, 2.0); (1, 2, 2.0); (0, 2, 2.5) ] in
        let spec = Gm.broadcast ~graph ~root:0 in
        let tree = G.Tree.of_edge_ids graph ~root:0 [ 0; 1 ] in
        let r = Sne.broadcast spec ~root:0 tree in
        Alcotest.check fl "cost" 0.5 r.Sne.cost;
        Alcotest.check fl "deep edge subsidized" 0.5 r.Sne.subsidy.(1));
    Alcotest.test_case "LP (2) matches on the 3-node line" `Quick (fun () ->
        let graph = G.create ~n:3 [ (0, 1, 2.0); (1, 2, 2.0); (0, 2, 2.5) ] in
        let spec = Gm.broadcast ~graph ~root:0 in
        let tree = G.Tree.of_edge_ids graph ~root:0 [ 0; 1 ] in
        let state = Gm.Broadcast.state_of_tree spec ~root:0 tree in
        let r = Sne.poly spec ~state in
        Alcotest.check fl "cost" 0.5 r.Sne.cost);
    Alcotest.test_case "cutting plane matches and converges" `Quick (fun () ->
        let graph = G.create ~n:3 [ (0, 1, 2.0); (1, 2, 2.0); (0, 2, 2.5) ] in
        let spec = Gm.broadcast ~graph ~root:0 in
        let tree = G.Tree.of_edge_ids graph ~root:0 [ 0; 1 ] in
        let state = Gm.Broadcast.state_of_tree spec ~root:0 tree in
        let r, stats = Sne.cutting_plane spec ~state in
        Alcotest.check fl "cost" 0.5 r.Sne.cost;
        Alcotest.(check bool) "converged" true stats.Sne.converged;
        Alcotest.(check bool) "few rounds" true (stats.Sne.rounds <= 10));
    Alcotest.test_case "LP (2) handles a non-broadcast game" `Quick (fun () ->
        (* Two players with distinct terminals sharing a middle edge.
           Graph: 0 -(4)- 1 -(1)- 2 -(4)- 3, shortcuts (0,2) w 3 and (1,3)
           w 3. Player A: 0->2 via [e0;e1] costs 4/1+1/2 = 4.5 > 3: tempted
           by the direct (0,2). Enforce state where A uses [e0;e1] and B
           (1->3) uses [e1;e2]. *)
        let graph =
          G.create ~n:4 [ (0, 1, 4.0); (1, 2, 1.0); (2, 3, 4.0); (0, 2, 3.0); (1, 3, 3.0) ]
        in
        let spec = Gm.create ~graph ~pairs:[| (0, 2); (1, 3) |] in
        let state = [| [ 0; 1 ]; [ 1; 2 ] |] in
        Gm.validate_state spec state;
        let r = Sne.poly spec ~state in
        let subsidy = r.Sne.subsidy in
        Alcotest.(check bool) "enforces the state" true
          (Gm.is_equilibrium ~subsidy spec state);
        (* Player A needs cost <= 3, player B needs cost <= 3; a direct
           check that some subsidy was required. *)
        Alcotest.(check bool) "positive cost" true (r.Sne.cost > 0.1));
    Alcotest.test_case "Theorem 6 on the unit cycle" `Quick (fun () ->
        let inst = Lb.cycle_instance ~n:20 in
        let tree = Lb.tree inst in
        let r = Enforce.subsidize_mst inst.Lb.graph tree in
        let spec = Lb.spec inst in
        Alcotest.(check bool) "enforces" true
          (Gm.Broadcast.is_tree_equilibrium ~subsidy:r.Enforce.subsidy spec tree);
        Alcotest.(check bool) "ratio under 1/e" true
          (Fx.leq (Enforce.ratio r) inv_e));
    Alcotest.test_case "Theorem 6 rejects non-MST targets" `Quick (fun () ->
        let graph = G.create ~n:2 [ (0, 1, 1.0); (0, 1, 2.0) ] in
        let tree = G.Tree.of_edge_ids graph ~root:0 [ 1 ] in
        Alcotest.check_raises "not an MST"
          (Invalid_argument "Enforce.subsidize_mst: target tree is not a minimum spanning tree")
          (fun () -> ignore (Enforce.subsidize_mst graph tree)));
    Alcotest.test_case "virtual cost identities (Claims 8 and 10)" `Quick (fun () ->
        (* vc(a, 0) with m = 1 is infinite in the limit; with y = c it is 0. *)
        Alcotest.check fl "fully subsidized edge has zero vc" 0.0
          (Enforce.virtual_cost ~c:1.0 ~m:5 ~y:1.0);
        (* Claim 8: vc >= (c - y)/n for n >= m. *)
        for m = 1 to 6 do
          let y = 0.3 in
          let vc = Enforce.virtual_cost ~c:1.0 ~m ~y in
          if not (Fx.geq vc (Enforce.real_share ~c:1.0 ~m ~y)) then
            Alcotest.failf "Claim 8 fails at m=%d" m
        done;
        (* Claim 10: packed subsidies on a path with m-values 1..6 and
           budget 1.6c give total vc = c * ln(6/1.6) (the Figure 4 area). *)
        let c = 1.0 and k = 6 in
        let packed = Enforce.pack_on_path ~c ~k ~y:1.6 in
        let total_vc = ref 0.0 in
        Array.iteri
          (fun i y -> total_vc := !total_vc +. Enforce.virtual_cost ~c ~m:(i + 1) ~y)
          packed;
        Alcotest.check fl "area identity" (c *. Stdlib.log (6.0 /. 1.6)) !total_vc);
    Alcotest.test_case "Theorem 11: cycle ratio approaches 1/e from below" `Quick
      (fun () ->
        let ratio n =
          let inst = Lb.cycle_instance ~n in
          let spec = Lb.spec inst in
          let r = Sne.broadcast spec ~root:inst.Lb.root (Lb.tree inst) in
          r.Sne.cost /. float_of_int n
        in
        let r64 = ratio 64 and r256 = ratio 256 in
        Alcotest.(check bool) "below 1/e" true (Fx.leq r256 inv_e);
        Alcotest.(check bool) "monotone toward 1/e" true (r64 <= r256 +. 1e-9);
        (* The proof gives opt >= (n+1)/e - 2. *)
        Alcotest.(check bool) "above the proof's lower bound" true
          (Fx.geq (r256 *. 256.0) ((257.0 /. Stdlib.exp 1.0) -. 2.0)));
    Alcotest.test_case "all-or-nothing exact beats nothing and enforces" `Quick
      (fun () ->
        let inst = Lb.cycle_instance ~n:8 in
        let spec = Lb.spec inst in
        let tree = Lb.tree inst in
        let r = Aon.solve_exact spec tree in
        Alcotest.(check bool) "optimal search completed" true r.Aon.optimal;
        Alcotest.(check bool) "enforces" true (Aon.enforces spec tree r.Aon.chosen);
        (* On the unit cycle the exact AoN cost is an integer count. *)
        Alcotest.(check bool) "cost positive" true (r.Aon.cost > 0.5));
    Alcotest.test_case "greedy all-or-nothing always enforces" `Quick (fun () ->
        let inst = Lb.cycle_instance ~n:12 in
        let spec = Lb.spec inst in
        let tree = Lb.tree inst in
        let r = Aon.greedy spec tree in
        Alcotest.(check bool) "enforces" true (Aon.enforces spec tree r.Aon.chosen));
    Alcotest.test_case "Theorem 21: path family needs ~ e/(2e-1) of wgt(T)" `Quick
      (fun () ->
        let bound = Stdlib.exp 1.0 /. ((2.0 *. Stdlib.exp 1.0) -. 1.0) in
        let ratio n =
          let x = Repro_core.Lower_bounds.theorem21_x ~n in
          let inst = Lb.aon_path_instance ~n ~x in
          let spec = Lb.spec inst in
          let tree = Lb.tree inst in
          let r = Aon.solve_exact spec tree in
          Alcotest.(check bool) "search completed" true r.Aon.optimal;
          r.Aon.cost /. G.Tree.total_weight tree
        in
        let r14 = ratio 14 in
        (* Converges from slightly above/around the bound; for moderate n it
           must already be within a few percent and never far below. *)
        Alcotest.(check bool) "near e/(2e-1)" true (Float.abs (r14 -. bound) < 0.08));
    Alcotest.test_case "SND exact with budget 0 matches the equilibrium landscape"
      `Quick (fun () ->
        let inst = Instances.random ~dist:(Instances.Integer 6) ~n:5 ~extra:3 ~seed:11 () in
        let landscape =
          Gm.Exact.equilibrium_landscape ~graph:inst.Instances.graph ~root:inst.Instances.root
        in
        match
          ( Snd.exact_small ~graph:inst.Instances.graph ~root:inst.Instances.root ~budget:0.0,
            landscape.Gm.Exact.best_equilibrium )
        with
        | Some d, Some (w, _) -> Alcotest.check fl "same weight" w d.Snd.weight
        | None, None -> ()
        | Some _, None -> Alcotest.fail "SND found a design the landscape missed"
        | None, Some _ -> Alcotest.fail "landscape has an equilibrium SND missed");
    Alcotest.test_case "SND exact with a huge budget returns the MST" `Quick (fun () ->
        let inst = Instances.random ~dist:(Instances.Integer 6) ~n:5 ~extra:3 ~seed:12 () in
        let graph = inst.Instances.graph in
        match Snd.exact_small ~graph ~root:inst.Instances.root ~budget:1e9 with
        | Some d ->
            let mst_w = G.total_weight graph (Option.get (G.mst_kruskal graph)) in
            Alcotest.check fl "MST weight" mst_w d.Snd.weight
        | None -> Alcotest.fail "budget 1e9 must be feasible");
    Alcotest.test_case "SND mst_heuristic succeeds with the Theorem 6 budget" `Quick
      (fun () ->
        let inst = Instances.random ~dist:(Instances.Integer 8) ~n:7 ~extra:5 ~seed:13 () in
        let graph = inst.Instances.graph in
        let mst_w = G.total_weight graph (Option.get (G.mst_kruskal graph)) in
        match Snd.mst_heuristic ~graph ~root:inst.Instances.root ~budget:(mst_w *. inv_e) with
        | Some d ->
            Alcotest.(check bool) "within budget" true
              (Fx.leq d.Snd.subsidy_cost (mst_w *. inv_e))
        | None -> Alcotest.fail "Theorem 6 guarantees feasibility at wgt(T)/e");
    Alcotest.test_case "integral SND agrees with fractional SND at the budget extremes"
      `Quick (fun () ->
        let inst = Instances.random ~dist:(Instances.Integer 6) ~n:5 ~extra:3 ~seed:21 () in
        let graph = inst.Instances.graph and root = inst.Instances.root in
        (* Budget 0: whole-edge and fractional subsidies coincide (none). *)
        let f0 = Snd.exact_small ~graph ~root ~budget:0.0 in
        let a0 = Snd.exact_small_aon ~graph ~root ~budget:0.0 () in
        (match (f0, a0) with
        | Some df, Some da -> Alcotest.check fl "same weight at budget 0" df.Snd.weight da.Snd.weight
        | _ -> Alcotest.fail "budget 0 is always feasible");
        (* Huge budget: both buy the MST. *)
        let mst_w = G.total_weight graph (Option.get (G.mst_kruskal graph)) in
        (match Snd.exact_small_aon ~graph ~root ~budget:1e9 () with
        | Some d -> Alcotest.check fl "MST at huge budget" mst_w d.Snd.weight
        | None -> Alcotest.fail "huge budget feasible"));
    Alcotest.test_case
      "integral SND never beats fractional SND at the same budget" `Quick (fun () ->
        List.iter
          (fun seed ->
            let inst =
              Instances.random ~dist:(Instances.Integer 6) ~n:5 ~extra:3 ~seed ()
            in
            let graph = inst.Instances.graph and root = inst.Instances.root in
            List.iter
              (fun budget ->
                match
                  ( Snd.exact_small ~graph ~root ~budget,
                    Snd.exact_small_aon ~graph ~root ~budget () )
                with
                | Some df, Some da ->
                    Alcotest.(check bool)
                      (Printf.sprintf "seed %d budget %.1f" seed budget)
                      true
                      (Fx.leq df.Snd.weight da.Snd.weight)
                | _ -> Alcotest.fail "both feasible")
              [ 0.0; 1.0; 3.0 ])
          [ 31; 32; 33 ]);
    Alcotest.test_case "SND local search finds a feasible design" `Quick (fun () ->
        let inst = Instances.random ~dist:(Instances.Integer 8) ~n:6 ~extra:4 ~seed:14 () in
        let graph = inst.Instances.graph in
        let mst_w = G.total_weight graph (Option.get (G.mst_kruskal graph)) in
        match Snd.local_search ~graph ~root:inst.Instances.root ~budget:(mst_w *. inv_e) () with
        | Some d -> Alcotest.(check bool) "within budget" true
              (Fx.leq d.Snd.subsidy_cost (mst_w *. inv_e +. 1e-9))
        | None -> Alcotest.fail "local search should succeed from the MST");
  ]

let prop ?(count = 30) name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name (QCheck2.Gen.int_range 0 1_000_000) f)

let property_tests =
  [
    prop "the three LP formulations agree and their subsidies enforce" (fun seed ->
        let inst = random_instance seed in
        let graph = inst.Instances.graph in
        let spec = Instances.spec inst in
        let tree = Instances.mst_tree inst in
        let state = Gm.Broadcast.state_of_tree spec ~root:inst.Instances.root tree in
        let r3 = Sne.broadcast spec ~root:inst.Instances.root tree in
        let r2 = Sne.poly spec ~state in
        let r1, stats = Sne.cutting_plane spec ~state in
        stats.Sne.converged
        && Fx.approx_eq ~eps:1e-5 r3.Sne.cost r2.Sne.cost
        && Fx.approx_eq ~eps:1e-5 r3.Sne.cost r1.Sne.cost
        && Gm.Broadcast.is_tree_equilibrium ~subsidy:r3.Sne.subsidy spec tree
        && Gm.is_equilibrium ~subsidy:r2.Sne.subsidy spec state
        && Gm.is_equilibrium ~subsidy:r1.Sne.subsidy spec state
        && enforcement_valid graph tree r3.Sne.subsidy);
    prop "Theorem 6: enforces, bounded by wgt/e, and never beats the LP optimum"
      (fun seed ->
        let inst = random_instance seed in
        let graph = inst.Instances.graph in
        let spec = Instances.spec inst in
        let tree = Instances.mst_tree inst in
        let r = Enforce.subsidize_mst graph tree in
        let lp = Sne.broadcast spec ~root:inst.Instances.root tree in
        Gm.Broadcast.is_tree_equilibrium ~subsidy:r.Enforce.subsidy spec tree
        && Fx.leq (Enforce.ratio r) inv_e
        && Fx.leq lp.Sne.cost (r.Enforce.total +. 1e-6)
        && enforcement_valid graph tree r.Enforce.subsidy);
    prop "exact AoN <= greedy AoN, both enforce" ~count:20 (fun seed ->
        let inst =
          Instances.random ~dist:(Instances.Integer 9) ~n:(4 + (seed mod 4))
            ~extra:(1 + (seed mod 3)) ~seed ()
        in
        let spec = Instances.spec inst in
        let tree = Instances.mst_tree inst in
        let exact = Aon.solve_exact spec tree in
        let greedy = Aon.greedy spec tree in
        exact.Aon.optimal
        && Aon.enforces spec tree exact.Aon.chosen
        && Aon.enforces spec tree greedy.Aon.chosen
        && Fx.leq exact.Aon.cost greedy.Aon.cost
        (* Fractional optimum lower-bounds the integral one. *)
        && Fx.leq
             (Sne.broadcast spec ~root:inst.Instances.root tree).Sne.cost
             (exact.Aon.cost +. 1e-6));
    prop "lp_rounding is sound when it answers, and costs at least the fraction"
      ~count:20 (fun seed ->
        let inst = random_instance seed in
        let spec = Instances.spec inst in
        let tree = Instances.mst_tree inst in
        let frac = Sne.broadcast spec ~root:inst.Instances.root tree in
        match Aon.lp_rounding spec ~root:inst.Instances.root tree with
        | None -> true (* rounding may legitimately fail: non-monotonicity *)
        | Some r ->
            Aon.enforces spec tree r.Aon.chosen && Fx.leq frac.Sne.cost (r.Aon.cost +. 1e-7));
    prop "AoN search respects its node budget and still returns a feasible plan"
      ~count:10 (fun seed ->
        let inst = random_instance seed in
        let spec = Instances.spec inst in
        let tree = Instances.mst_tree inst in
        let r = Aon.solve_exact ~max_nodes:5 spec tree in
        (* Truncated search: not optimal, but the full-subsidy fallback is
           always feasible. *)
        (not r.Aon.optimal || r.Aon.nodes_explored <= 5)
        && Aon.enforces spec tree r.Aon.chosen);
    prop "LP subsidy cost is zero iff the MST is already an equilibrium" ~count:25
      (fun seed ->
        let inst = random_instance seed in
        let spec = Instances.spec inst in
        let tree = Instances.mst_tree inst in
        let r = Sne.broadcast spec ~root:inst.Instances.root tree in
        let already = Gm.Broadcast.is_tree_equilibrium spec tree in
        if already then Fx.approx_eq ~eps:1e-6 r.Sne.cost 0.0 else r.Sne.cost > 1e-7);
  ]

(* Cutting-plane figures of [Float_sparse.cutting_plane] recorded before
   the separation oracle was bounded by the current cost: the oracle may
   stop each player's search early but must emit the same cuts, so the
   rounds, cut count, pivots and the bits of the optimum stay put. *)
module Snes = Repro_core.Sne_lp.Float_sparse

let anti_mst_tree (inst : Instances.t) =
  let g = inst.Instances.graph in
  let maxw = G.fold_edges g ~init:0.0 ~f:(fun a e -> Float.max a e.G.weight) in
  let inverted = G.with_weights g (fun e -> maxw -. e.G.weight +. 1.0) in
  G.Tree.of_edge_ids g ~root:inst.Instances.root (Option.get (G.mst_kruskal inverted))

let golden =
  let heavy n seed = Instances.random ~dist:(Instances.Heavy_tailed 10.0) ~n ~extra:n ~seed () in
  let grid () = Instances.grid_metro ~rows:4 ~cols:5 ~seed:1 () in
  [
    ("mst-heavy64-s4", heavy 64 4, Instances.mst_tree, (1, 1, 1, 0x1.ef26e169c4086p-6));
    ("mst-heavy64-s6", heavy 64 6, Instances.mst_tree, (1, 2, 2, 0x1.91d3b53f2c1e8p-3));
    ("anti-heavy24-s1", heavy 24 1, anti_mst_tree, (6, 78, 54, 0x1.627170b27e585p+6));
    ("anti-heavy24-s2", heavy 24 2, anti_mst_tree, (4, 51, 38, 0x1.6a89ba45e22bp+6));
    ("anti-heavy24-s3", heavy 24 3, anti_mst_tree, (4, 35, 26, 0x1.c7405ed824f65p+6));
    ("mst-grid4x5", grid (), Instances.mst_tree, (1, 5, 5, 0x1.033bee5e532c2p+1));
    ("anti-grid4x5", grid (), anti_mst_tree, (2, 7, 7, 0x1.e7483c8e5e93ep+1));
    ( "anti-ring20-s2",
      Instances.ring_city ~n:20 ~chords:6 ~seed:2 (),
      anti_mst_tree,
      (2, 8, 8, 0x1.94bb56a072e3p+2) );
  ]

let separation_tests =
  List.map
    (fun (name, inst, target, (rounds, generated, pivots, cost)) ->
      Alcotest.test_case ("golden cut " ^ name) `Quick (fun () ->
          let spec = Instances.spec inst in
          let state =
            Gm.Broadcast.state_of_tree spec ~root:inst.Instances.root (target inst)
          in
          let r, st = Snes.cutting_plane spec ~state in
          Alcotest.(check bool) "converged" true st.Snes.converged;
          Alcotest.(check (list int)) "rounds, cuts, pivots" [ rounds; generated; pivots ]
            [ st.Snes.rounds; st.Snes.generated; st.Snes.pivots ];
          Alcotest.(check string) "cost bits" (Printf.sprintf "%h" cost)
            (Printf.sprintf "%h" r.Snes.cost)))
    golden
  @ [
      Alcotest.test_case "cutting plane keeps the disconnection error" `Quick (fun () ->
          (* Node 3 is isolated; its player's recorded path (edge 0) costs
             her 1 at zero subsidy, so the bounded search exhausts {3}. *)
          let graph = G.create ~n:4 [ (0, 1, 2.0); (0, 2, 3.0) ] in
          let spec = Gm.create ~graph ~pairs:[| (1, 0); (2, 0); (3, 0) |] in
          let state = [| [ 0 ]; [ 1 ]; [ 0 ] |] in
          Alcotest.check_raises "cut-off player"
            (Invalid_argument "Game.improving_response: graph disconnects a player")
            (fun () -> ignore (Snes.cutting_plane spec ~state)));
    ]

let suite = unit_tests @ property_tests @ separation_tests
