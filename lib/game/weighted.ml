(** Weighted network design games — the [Chen & Roughgarden]-style variant
    the paper lists among its open problems (Section 6): player [i] has a
    demand [d_i] and pays the fraction d_i / D_a of each used edge, where
    D_a is the total demand on the edge.

    Unlike the unweighted game, weighted games need not admit pure Nash
    equilibria at all (there is no Rosenthal potential), which makes the
    subsidy question sharper: subsidies can *create* stability where none
    existed. The engine mirrors {!Game.Make}: costs, best responses,
    equilibrium checks, dynamics (which may legitimately fail to converge —
    the [converged] flag matters here), and a broadcast fast path for
    spanning-tree states. Setting every demand to 1 recovers the unweighted
    game exactly (tested). *)

module Make (F : Repro_field.Field.S) = struct
  module Base = Game.Make (F)
  module G = Base.G

  type spec = { base : Base.spec; demand : F.t array }

  let create ~graph ~pairs ~demand =
    if Array.length demand <> Array.length pairs then
      invalid_arg "Weighted.create: one demand per player";
    Array.iter
      (fun d -> if F.sign d <= 0 then invalid_arg "Weighted.create: demands must be positive")
      demand;
    { base = Base.create ~graph ~pairs; demand }

  (** Broadcast game with per-node demands ([demand_of v] for non-root v). *)
  let broadcast ~graph ~root ~demand_of =
    let base = Base.broadcast ~graph ~root in
    let demand = Array.map (fun (v, _) -> demand_of v) base.Base.pairs in
    create ~graph ~pairs:base.Base.pairs ~demand

  let n_players t = Base.n_players t.base
  let graph t = t.base.Base.graph

  (** D_a(T): total demand on each edge. *)
  let demand_usage t (state : Base.state) =
    let d = Array.make (G.n_edges (graph t)) F.zero in
    Array.iteri
      (fun i path -> List.iter (fun id -> d.(id) <- F.add d.(id) t.demand.(i)) path)
      state;
    d

  let no_subsidy t = Array.make (G.n_edges (graph t)) F.zero

  let net_weight t subsidy id = F.sub (G.weight (graph t) id) subsidy.(id)

  (** cost_i(T; b) = sum_a (w_a - b_a) * d_i / D_a(T). *)
  let player_cost ?subsidy t state i =
    let b = match subsidy with Some b -> b | None -> no_subsidy t in
    let du = demand_usage t state in
    List.fold_left
      (fun acc id ->
        acc
        |> F.add (F.div (F.mul (net_weight t b id) t.demand.(i)) du.(id)))
      F.zero state.(i)

  let social_cost t state = Base.social_cost t.base state

  (** Best response of player [i]: cheapest path pricing edge [a] at
      (w_a - b_a) * d_i / (D_a - [i uses a] d_i + d_i). *)
  let best_response ?subsidy t state i =
    let b = match subsidy with Some b -> b | None -> no_subsidy t in
    let du = demand_usage t state in
    let mine = Base.own_mask t.base state i in
    let di = t.demand.(i) in
    let weight_fn (e : G.edge) =
      let others = if Bytes.get mine e.G.id <> '\000' then F.sub du.(e.G.id) di else du.(e.G.id) in
      F.div (F.mul (net_weight t b e.G.id) di) (F.add others di)
    in
    let s, dst = t.base.Base.pairs.(i) in
    match G.shortest_path ~weight_fn (graph t) ~src:s ~dst with
    | None -> invalid_arg "Weighted.best_response: graph disconnects a player"
    | Some (cost, path) -> (cost, path)

  (** One separation sweep's shared inputs: net weights (w_a - b_a) and
      demand usage D_a(T). Edge prices depend on the deviating player's
      demand, so [improving_response] finishes them per player, with the
      field operations [best_response] uses. *)
  type prices = { net : F.t array; du : F.t array }

  let sweep_prices ?subsidy t ~du =
    let b = match subsidy with Some b -> b | None -> no_subsidy t in
    { net = Array.init (G.n_edges (graph t)) (net_weight t b); du }

  (** [Some (cost, path)] exactly when player [i]'s best response is
      strictly cheaper than her current cost, with [best_response]'s cost
      and path; the search is bounded by the current cost. Raises
      [Invalid_argument] on a player it cannot connect. *)
  let improving_response p t state i =
    let di = t.demand.(i) and net = p.net and du = p.du in
    let current =
      List.fold_left (fun acc id -> F.add acc (F.div (F.mul net.(id) di) du.(id))) F.zero state.(i)
    in
    let mine = Base.own_mask t.base state i in
    let weight_fn (e : G.edge) =
      let id = e.G.id in
      let others = if Bytes.unsafe_get mine id <> '\000' then F.sub du.(id) di else du.(id) in
      F.div (F.mul net.(id) di) (F.add others di)
    in
    let s, dst = t.base.Base.pairs.(i) in
    match G.shortest_path_bounded ~weight_fn (graph t) ~src:s ~dst ~limit:current with
    | G.Reached (cost, path) -> Some (cost, path)
    | G.Pruned -> None
    | G.Unreachable -> invalid_arg "Weighted.improving_response: graph disconnects a player"

  let worst_violation ?subsidy t state =
    let best = ref None in
    let p = sweep_prices ?subsidy t ~du:(demand_usage t state) in
    for i = 0 to n_players t - 1 do
      match improving_response p t state i with
      | None -> ()
      | Some (cost, path) -> (
          let current = player_cost ?subsidy t state i in
          let gain = F.sub current cost in
          match !best with
          | Some (_, _, _, _, g) when F.leq gain g -> ()
          | _ -> best := Some (i, current, cost, path, gain))
    done;
    Option.map (fun (i, cur, cost, path, _) -> (i, cur, cost, path)) !best

  let is_equilibrium ?subsidy t state = worst_violation ?subsidy t state = None

  (** Round-robin best-response dynamics. Weighted games have no potential,
      so non-convergence within [max_rounds] is a real outcome, reported via
      [converged = false]. The prices are rebuilt after every move. *)
  let best_response_dynamics ?subsidy ?(max_rounds = 200) t start =
    let state = Array.copy start in
    let moves = ref 0 in
    let price () = sweep_prices ?subsidy t ~du:(demand_usage t state) in
    let rec run round =
      if round >= max_rounds then
        { Base.Dynamics.state; rounds = round; moves = !moves; converged = false }
      else begin
        let p = ref (price ()) and changed = ref false in
        for i = 0 to n_players t - 1 do
          match improving_response !p t state i with
          | None -> ()
          | Some (_, path) ->
              state.(i) <- path;
              incr moves;
              changed := true;
              p := price ()
        done;
        if !changed then run (round + 1)
        else { Base.Dynamics.state; rounds = round; moves = !moves; converged = true }
      end
    in
    run 0

  module Broadcast = struct
    let state_of_tree t ~root tree = Base.Broadcast.state_of_tree t.base ~root tree

    (** Total demand below each tree edge (the weighted analogue of
        [Tree.usage]). *)
    let tree_demand t (tree : G.Tree.t) =
      let n = G.n_nodes (graph t) in
      let node_demand = Array.make n F.zero in
      Array.iteri
        (fun i (v, _) -> node_demand.(v) <- t.demand.(i))
        t.base.Base.pairs;
      let below = Array.make n F.zero in
      let order = G.Tree.order tree in
      for k = n - 1 downto 0 do
        let v = order.(k) in
        below.(v) <-
          List.fold_left
            (fun acc c -> F.add acc below.(c))
            node_demand.(v) (G.Tree.children tree v)
      done;
      fun edge_id ->
        if not (G.Tree.mem_edge tree edge_id) then F.zero
        else below.(G.Tree.lower_endpoint tree edge_id)

    (** Spanning-tree check over the single-non-tree-edge deviation family
        of Lemma 2. For weighted games this family is {e necessary but not
        sufficient}: Lemma 2's exchange argument needs unit demands, and the
        test suite exhibits an instance where the cheapest profitable
        deviation uses two non-tree edges while every one-edge deviation
        loses. So a reported violation disproves equilibrium, but a clean
        pass must be confirmed with [is_equilibrium] (the exact weighted
        solver, [Sne_lp.weighted_cutting_plane], does exactly that). *)
    let tree_violation ?subsidy t ~root (tree : G.Tree.t) =
      let b = match subsidy with Some b -> b | None -> no_subsidy t in
      let dem = tree_demand t tree in
      let n = G.n_nodes (graph t) in
      (* s1.(v): v's player's cost per unit demand along her tree path. *)
      let s1 = Array.make n F.zero in
      Array.iter
        (fun v ->
          match G.Tree.parent_edge tree v with
          | None -> ()
          | Some id ->
              let p = Option.get (G.Tree.parent tree v) in
              s1.(v) <- F.add s1.(p) (F.div (net_weight t b id) (dem id)))
        (G.Tree.order tree);
      let worst = ref None in
      let player_of = Base.broadcast_player ~root in
      G.fold_edges (graph t) ~init:() ~f:(fun () e ->
          if not (G.Tree.mem_edge tree e.G.id) then
            List.iter
              (fun u ->
                if u <> root then begin
                  let v = G.other (graph t) e.G.id u in
                  let du = t.demand.(player_of u) in
                  let l = G.Tree.lca tree u v in
                  (* Deviation: full (w-b) on the fresh edge (only u uses
                     it), then v's path: below the LCA u adds her demand;
                     above it she already contributes. *)
                  let fresh = net_weight t b e.G.id in
                  let joined =
                    List.fold_left
                      (fun acc id ->
                        F.add acc (F.div (net_weight t b id) (F.add (dem id) du)))
                      F.zero
                      (G.Tree.path_between tree v l)
                  in
                  let deviation = F.add fresh (F.mul du (F.add joined s1.(l))) in
                  (* Current cost: d_u * s1(u); note s1 is per-unit. *)
                  let current = F.mul du s1.(u) in
                  let slack = F.sub deviation current in
                  if F.lt slack F.zero then
                    match !worst with
                    | Some (_, _, _, s) when F.leq s slack -> ()
                    | _ -> worst := Some (u, e.G.id, v, slack)
                end)
              [ e.G.u; e.G.v ]);
      !worst

    let is_tree_equilibrium ?subsidy t ~root tree = tree_violation ?subsidy t ~root tree = None
  end
end

module Float_weighted = Make (Repro_field.Field.Float_field)
module Rat_weighted = Make (Repro_field.Field.Rat)
