(** Network design games with fair (Shapley) cost sharing, as defined in
    Section 2 of the paper, functorized over the weight field.

    A game is an edge-weighted undirected graph plus one (source, target)
    pair per player; a state assigns each player a path; the weight of every
    established edge is split equally among the players using it. Subsidies
    [b] reduce edge [a]'s shareable weight to [w_a - b_a] (the "extension of
    the game with subsidies").

    The module provides the general engine (costs, best responses via
    Dijkstra on deviation shares, equilibrium checks, Rosenthal potential,
    best-response dynamics) and two specializations used heavily by the
    reproduction: [Broadcast] (spanning-tree states checked with the O(|E|)
    condition of Lemma 2) and [Exact] (price of stability / anarchy by
    spanning-tree enumeration on small instances). *)

module Make (F : Repro_field.Field.S) = struct
  module G = Repro_graph.Wgraph.Make (F)

  type spec = { graph : G.t; pairs : (int * int) array }

  let n_players spec = Array.length spec.pairs

  let create ~graph ~pairs =
    Array.iter
      (fun (s, t) ->
        if s < 0 || s >= G.n_nodes graph || t < 0 || t >= G.n_nodes graph then
          invalid_arg "Game.create: terminal out of range";
        if s = t then invalid_arg "Game.create: source equals target")
      pairs;
    { graph; pairs }

  (** Broadcast game: one player per non-root node, each connecting to
      [root]. Player [i] is associated with the [i]-th non-root node in
      increasing node order. *)
  let broadcast ~graph ~root =
    let pairs =
      Array.init (G.n_nodes graph - 1) (fun i ->
          let v = if i < root then i else i + 1 in
          (v, root))
    in
    { graph; pairs }

  (** The player associated with node [v] in a broadcast game. *)
  let broadcast_player ~root v =
    if v = root then invalid_arg "Game.broadcast_player: root has no player";
    if v < root then v else v - 1

  (** Multicast game: one player per terminal, each connecting to [root]
      (broadcast is the special case terminals = all non-root nodes). The
      paper's Section 6 poses SND on multicast games as an open problem;
      the general-game machinery (LP (2), cutting planes, dynamics) applies
      unchanged, while the broadcast-only fast paths do not. *)
  let multicast ~graph ~root ~terminals =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun v ->
        if v = root then invalid_arg "Game.multicast: root cannot be a terminal";
        if Hashtbl.mem seen v then invalid_arg "Game.multicast: duplicate terminal";
        Hashtbl.add seen v ())
      terminals;
    create ~graph ~pairs:(Array.of_list (List.map (fun v -> (v, root)) terminals))

  (* ---------------------------------------------------------------- *)
  (* States                                                            *)
  (* ---------------------------------------------------------------- *)

  (** A state assigns each player a path, as edge ids in travel order from
      her source to her target. *)
  type state = int list array

  (** Check that [state.(i)] is a walk from [s_i] to [t_i]. *)
  let validate_state spec state =
    if Array.length state <> n_players spec then
      invalid_arg "Game.validate_state: wrong number of strategies";
    Array.iteri
      (fun i path ->
        let s, t = spec.pairs.(i) in
        let final =
          List.fold_left
            (fun here id -> G.other spec.graph id here)
            s path
        in
        if final <> t then invalid_arg "Game.validate_state: path does not reach target")
      state

  (** n_a(T): how many players use each edge. *)
  let usage spec state =
    let u = Array.make (G.n_edges spec.graph) 0 in
    ignore spec;
    Array.iter (List.iter (fun id -> u.(id) <- u.(id) + 1)) state;
    u

  (* Per-domain own-path mask: player i's edges marked in a byte mask
     that is reused across calls. Each call first clears the previous
     call's marks, so an exception between calls leaves nothing stale. *)
  type own_scratch = { mutable bits : Bytes.t; mutable marked : int list }

  let own_key = Domain.DLS.new_key (fun () -> { bits = Bytes.empty; marked = [] })

  (** Membership mask of player [i]'s strategy, n^i_a(T), as bytes over
      edge ids (['\001'] = used). The buffer is this domain's scratch,
      valid until the next call on this domain, so the per-player
      oracles allocate nothing O(m). *)
  let own_mask spec state i =
    let k = Domain.DLS.get own_key in
    let m = G.n_edges spec.graph in
    if Bytes.length k.bits < m then k.bits <- Bytes.make (max m (2 * Bytes.length k.bits)) '\000'
    else
      List.iter
        (fun id -> if id >= 0 && id < Bytes.length k.bits then Bytes.unsafe_set k.bits id '\000')
        k.marked;
    k.marked <- state.(i);
    List.iter (fun id -> Bytes.set k.bits id '\001') state.(i);
    k.bits

  let no_subsidy spec = Array.make (G.n_edges spec.graph) F.zero

  (** Shareable weight of edge [id] under subsidies. *)
  let net_weight spec subsidy id = F.sub (G.weight spec.graph id) subsidy.(id)

  (** cost_i(T; b) = sum over the player's edges of (w_a - b_a)/n_a(T).
      [usage] short-circuits the per-call usage recomputation when the
      caller already holds [usage spec state] — the separation sweeps call
      this once per player per round, and the recount was the dominant
      cost of a sweep. *)
  let player_cost ?subsidy ?usage:u_opt spec state i =
    let b = match subsidy with Some b -> b | None -> no_subsidy spec in
    let u = match u_opt with Some u -> u | None -> usage spec state in
    List.fold_left
      (fun acc id -> F.add acc (F.div (net_weight spec b id) (F.of_int u.(id))))
      F.zero state.(i)

  (** Social cost: total weight of established edges (the full weight; the
      authority pays the subsidized part). *)
  let social_cost spec state =
    let u = usage spec state in
    let acc = ref F.zero in
    Array.iteri (fun id k -> if k > 0 then acc := F.add !acc (G.weight spec.graph id)) u;
    !acc

  (** Rosenthal's potential Phi(T) = sum_a (w_a - b_a) * H_{n_a(T)}. *)
  let potential ?subsidy spec state =
    let b = match subsidy with Some b -> b | None -> no_subsidy spec in
    let u = usage spec state in
    let acc = ref F.zero in
    Array.iteri
      (fun id k ->
        if k > 0 then
          acc :=
            F.add !acc (F.mul (net_weight spec b id) (Repro_field.Field.harmonic (module F) k)))
      u;
    !acc

  (* ---------------------------------------------------------------- *)
  (* Best responses and equilibrium                                    *)
  (* ---------------------------------------------------------------- *)

  (** Best response of player [i] to the other players' strategies in
      [state]: the cheapest path from s_i to t_i where edge [a] costs
      [(w_a - b_a) / (n_a(T) + 1 - n^i_a(T))]. Returns the cost and path. *)
  let best_response ?subsidy ?usage:u_opt spec state i =
    let b = match subsidy with Some b -> b | None -> no_subsidy spec in
    let u = match u_opt with Some u -> u | None -> usage spec state in
    let mine = own_mask spec state i in
    let weight_fn (e : G.edge) =
      let sharers = u.(e.id) + 1 - if Bytes.get mine e.id <> '\000' then 1 else 0 in
      F.div (net_weight spec b e.id) (F.of_int sharers)
    in
    let s, t = spec.pairs.(i) in
    match G.shortest_path ~weight_fn spec.graph ~src:s ~dst:t with
    | None -> invalid_arg "Game.best_response: graph disconnects a player"
    | Some (cost, path) -> (cost, path)

  (** One separation sweep's edge prices, shared by every player:
      [shared.(a)] = (w_a - b_a)/(n_a(T) + 1), what a newcomer pays, and
      [own.(a)] = (w_a - b_a)/n_a(T), what a current user pays (zero on
      unused edges). The field operations are exactly [best_response]'s
      and [player_cost]'s, so every sum built from them is identical. *)
  type prices = { shared : F.t array; own : F.t array }

  let sweep_prices ?subsidy spec ~usage:u =
    let b = match subsidy with Some b -> b | None -> no_subsidy spec in
    let m = G.n_edges spec.graph in
    let shared = Array.make m F.zero and own = Array.make m F.zero in
    for id = 0 to m - 1 do
      let w = net_weight spec b id in
      shared.(id) <- F.div w (F.of_int (u.(id) + 1));
      if u.(id) > 0 then own.(id) <- F.div w (F.of_int u.(id))
    done;
    { shared; own }

  (** [Some (cost, path)] exactly when player [i]'s best response is
      strictly cheaper than her current cost ([F.lt]), with the cost
      and path [best_response] returns. The search is bounded by the
      current cost, so a player with no improving move is dismissed as
      soon as the Dijkstra frontier reaches it. Raises
      [Invalid_argument] when the search exhausts [s_i]'s component
      without settling [t_i]. *)
  let improving_response p spec state i =
    let current = List.fold_left (fun acc id -> F.add acc p.own.(id)) F.zero state.(i) in
    let mine = own_mask spec state i in
    let shared = p.shared and own = p.own in
    let weight_fn (e : G.edge) =
      let id = e.G.id in
      if Bytes.unsafe_get mine id <> '\000' then Array.unsafe_get own id
      else Array.unsafe_get shared id
    in
    let s, t = spec.pairs.(i) in
    match G.shortest_path_bounded ~weight_fn spec.graph ~src:s ~dst:t ~limit:current with
    | G.Reached (cost, path) -> Some (cost, path)
    | G.Pruned -> None
    | G.Unreachable -> invalid_arg "Game.improving_response: graph disconnects a player"

  (** The most profitable unilateral deviation, if any: player index,
      current cost, deviation cost, deviation path. *)
  let worst_violation ?subsidy spec state =
    let best = ref None in
    let u = usage spec state in
    let p = sweep_prices ?subsidy spec ~usage:u in
    for i = 0 to n_players spec - 1 do
      match improving_response p spec state i with
      | None -> ()
      | Some (cost, path) -> (
          let current = player_cost ?subsidy ~usage:u spec state i in
          let gain = F.sub current cost in
          match !best with
          | Some (_, _, _, _, g) when F.leq gain g -> ()
          | _ -> best := Some (i, current, cost, path, gain))
    done;
    Option.map (fun (i, cur, cost, path, _) -> (i, cur, cost, path)) !best

  let is_equilibrium ?subsidy spec state = worst_violation ?subsidy spec state = None

  (** Additive instability: the largest unilateral gain available to any
      player — zero exactly at equilibria. The natural "distance from
      equilibrium" used by the approximate-equilibria literature the paper
      cites (Albers & Lenzner). *)
  let additive_instability ?subsidy spec state =
    let worst = ref F.zero in
    for i = 0 to n_players spec - 1 do
      let gain =
        F.sub (player_cost ?subsidy spec state i) (fst (best_response ?subsidy spec state i))
      in
      if F.compare gain !worst > 0 then worst := gain
    done;
    !worst

  (** Multiplicative instability: the smallest alpha >= 1 such that the
      state is an alpha-approximate equilibrium (cost_i <= alpha * best
      response for every player). [None] when some player's best response
      is free while her current cost is not (alpha would be infinite). *)
  let multiplicative_instability ?subsidy spec state =
    let worst = ref (Some F.one) in
    for i = 0 to n_players spec - 1 do
      let cur = player_cost ?subsidy spec state i in
      let br = fst (best_response ?subsidy spec state i) in
      match !worst with
      | None -> ()
      | Some alpha ->
          if F.sign br > 0 then begin
            let ratio = F.div cur br in
            if F.compare ratio alpha > 0 then worst := Some ratio
          end
          else if F.sign cur > 0 then worst := None
    done;
    !worst

  let is_epsilon_equilibrium ?subsidy spec state ~epsilon =
    F.leq (additive_instability ?subsidy spec state) epsilon

  (* ---------------------------------------------------------------- *)
  (* Best-response dynamics                                            *)
  (* ---------------------------------------------------------------- *)

  module Dynamics = struct
    type outcome = {
      state : state;
      rounds : int; (* completed passes over the players *)
      moves : int; (* strategy changes performed *)
      converged : bool;
    }

    (* One round-robin pass: every player in turn takes her best response
       when it is strictly cheaper. A move changes the usage, so the
       prices are rebuilt after each one and every player is priced
       against the state as it stands when her turn comes. *)
    let improving_pass ?subsidy spec state moves =
      let price () = sweep_prices ?subsidy spec ~usage:(usage spec state) in
      let p = ref (price ()) and changed = ref false in
      for i = 0 to n_players spec - 1 do
        match improving_response !p spec state i with
        | None -> ()
        | Some (_, path) ->
            state.(i) <- path;
            incr moves;
            changed := true;
            p := price ()
      done;
      !changed

    (** Like {!best_response_dynamics}, also recording the Rosenthal
        potential after each round — the decreasing sequence whose
        existence (Rosenthal, via Anshelevich et al.) is why the dynamics
        terminate. First element: the starting potential. *)
    let trace ?subsidy ?(max_rounds = 10_000) spec start =
      let state = Array.copy start in
      let moves = ref 0 in
      let potentials = ref [ potential ?subsidy spec state ] in
      let rec run round =
        if round >= max_rounds then
          ({ state; rounds = round; moves = !moves; converged = false }, List.rev !potentials)
        else begin
          let changed = improving_pass ?subsidy spec state moves in
          if changed then begin
            potentials := potential ?subsidy spec state :: !potentials;
            run (round + 1)
          end
          else
            ({ state; rounds = round; moves = !moves; converged = true }, List.rev !potentials)
        end
      in
      run 0

    (** Round-robin best-response dynamics from [start]. Terminates because
        each improving move strictly decreases the Rosenthal potential;
        [max_rounds] only guards against float-tolerance livelock. *)
    let best_response_dynamics ?subsidy ?(max_rounds = 10_000) spec start =
      let state = Array.copy start in
      let moves = ref 0 in
      let rec run round =
        if round >= max_rounds then { state; rounds = round; moves = !moves; converged = false }
        else begin
          let changed = improving_pass ?subsidy spec state moves in
          if changed then run (round + 1)
          else { state; rounds = round; moves = !moves; converged = true }
        end
      in
      run 0
  end

  (* ---------------------------------------------------------------- *)
  (* Broadcast specialization                                          *)
  (* ---------------------------------------------------------------- *)

  module Broadcast = struct
    (** State induced by a rooted spanning tree: every player walks her tree
        path to the root. *)
    let state_of_tree spec ~root (tree : G.Tree.t) =
      Array.init (n_players spec) (fun i ->
          let v, r = spec.pairs.(i) in
          assert (r = root);
          G.Tree.path_to_root tree v)

    (** Per-node cumulative shares along root paths.

        [s1.(v)] = sum over the tree path from v to the root of
        (w_a - b_a)/n_a — the cost of the player at v.
        [s2.(v)] = same sum with denominators n_a + 1 — the share a player
        from outside the subtree would pay after joining. *)
    let path_shares ?subsidy spec (tree : G.Tree.t) =
      let b = match subsidy with Some b -> b | None -> no_subsidy spec in
      let n = G.n_nodes spec.graph in
      let s1 = Array.make n F.zero and s2 = Array.make n F.zero in
      Array.iter
        (fun v ->
          match G.Tree.parent_edge tree v with
          | None -> ()
          | Some id ->
              let p = Option.get (G.Tree.parent tree v) in
              let w = net_weight spec b id in
              let na = G.Tree.usage tree id in
              s1.(v) <- F.add s1.(p) (F.div w (F.of_int na));
              s2.(v) <- F.add s2.(p) (F.div w (F.of_int (na + 1))))
        (G.Tree.order tree);
      (s1, s2)

    (** One Lemma 2 / LP (3) constraint: can the player at [u] gain by
        switching to non-tree edge [(u,v)] followed by v's tree path?
        Returns [Some slack] with slack = deviation cost - current cost. *)
    let deviation_slack ?subsidy spec (tree : G.Tree.t) ~shares:(s1, s2) ~u ~edge_id ~v =
      let b = match subsidy with Some b -> b | None -> no_subsidy spec in
      let l = G.Tree.lca tree u v in
      let current = s1.(u) in
      let deviation =
        F.add (net_weight spec b edge_id) (F.add (F.sub s2.(v) s2.(l)) s1.(l))
      in
      F.sub deviation current

    (** Equilibrium check for a spanning-tree state via Lemma 2: only
        single-non-tree-edge deviations need examining. Returns the most
        violated constraint if any. *)
    let tree_violation ?subsidy spec (tree : G.Tree.t) =
      let root = tree.G.Tree.root in
      let shares = path_shares ?subsidy spec tree in
      let worst = ref None in
      G.fold_edges spec.graph ~init:() ~f:(fun () e ->
          if not (G.Tree.mem_edge tree e.G.id) then
            List.iter
              (fun u ->
                if u <> root then begin
                  let v = G.other spec.graph e.G.id u in
                  let slack =
                    deviation_slack ?subsidy spec tree ~shares ~u ~edge_id:e.G.id ~v
                  in
                  if F.lt slack F.zero then
                    match !worst with
                    | Some (_, _, _, s) when F.leq s slack -> ()
                    | _ -> worst := Some (u, e.G.id, v, slack)
                end)
              [ e.G.u; e.G.v ]);
      !worst

    let is_tree_equilibrium ?subsidy spec tree = tree_violation ?subsidy spec tree = None
  end

  (* ---------------------------------------------------------------- *)
  (* Exact optima on small instances                                   *)
  (* ---------------------------------------------------------------- *)

  module Exact = struct
    type landscape = {
      mst_weight : F.t;
      best_equilibrium : (F.t * int list) option; (* weight, tree edge ids *)
      worst_equilibrium : (F.t * int list) option;
      n_trees : int;
      n_equilibria : int;
    }

    (** Scan every spanning tree of a broadcast game (no subsidies),
        recording the cheapest and the costliest equilibrium trees. By the
        cycle argument in Section 2, restricting to trees loses no
        equilibrium weight. Exponential: small instances only. *)
    let equilibrium_landscape ~graph ~root =
      let spec = broadcast ~graph ~root in
      let best = ref None and worst = ref None in
      let n_trees = ref 0 and n_eq = ref 0 in
      let mst_weight = ref None in
      G.Enumerate.iter_spanning_trees graph ~f:(fun ids ->
          incr n_trees;
          let w = G.total_weight graph ids in
          (match !mst_weight with
          | Some m when F.leq m w -> ()
          | _ -> mst_weight := Some w);
          let tree = G.Tree.of_edge_ids graph ~root ids in
          if Broadcast.is_tree_equilibrium spec tree then begin
            incr n_eq;
            (match !best with
            | Some (bw, _) when F.leq bw w -> ()
            | _ -> best := Some (w, ids));
            match !worst with
            | Some (ww, _) when F.leq w ww -> ()
            | _ -> worst := Some (w, ids)
          end);
      match !mst_weight with
      | None -> invalid_arg "Exact.equilibrium_landscape: disconnected graph"
      | Some m ->
          {
            mst_weight = m;
            best_equilibrium = !best;
            worst_equilibrium = !worst;
            n_trees = !n_trees;
            n_equilibria = !n_eq;
          }

    (** Price of stability of a broadcast game, as best-equilibrium weight
        over MST weight. [None] when no spanning tree is an equilibrium
        (possible in principle only through float tolerance artifacts;
        Rosenthal's potential guarantees existence). *)
    (* A zero-weight optimum forces every equilibrium weight to zero too
       (the zero spanning tree is an equilibrium: no deviation can beat a
       free path), so the ratio is 1 rather than 0/0. *)
    let ratio_to_mst l w = if F.sign l.mst_weight = 0 then F.one else F.div w l.mst_weight

    let price_of_stability ~graph ~root =
      let l = equilibrium_landscape ~graph ~root in
      Option.map (fun (w, _) -> ratio_to_mst l w) l.best_equilibrium

    let price_of_anarchy_over_trees ~graph ~root =
      let l = equilibrium_landscape ~graph ~root in
      Option.map (fun (w, _) -> ratio_to_mst l w) l.worst_equilibrium

    (* All simple paths between two nodes (bounded DFS), for the state
       landscape below. *)
    let simple_paths graph ~src ~dst ~limit =
      let out = ref [] in
      let count = ref 0 in
      let visited = Array.make (G.n_nodes graph) false in
      let rec go here path =
        if !count < limit then begin
          if here = dst then begin
            incr count;
            out := List.rev path :: !out
          end
          else begin
            visited.(here) <- true;
            List.iter
              (fun (id, next) -> if not visited.(next) then go next (id :: path))
              (G.neighbors graph here);
            visited.(here) <- false
          end
        end
      in
      go src [];
      List.rev !out

    type state_landscape = {
      optimum : F.t; (* cheapest social cost over all states *)
      best_eq : (F.t * state) option;
      worst_eq : (F.t * state) option;
      n_states : int;
      n_eq : int;
    }

    (** Exhaustive state landscape of a {e general} game (multicast, or any
        terminal pairs): enumerate the product of every player's simple
        paths, check each profile for equilibrium. The product size is
        guarded by [max_states]; raises [Invalid_argument] beyond it. This
        is the multicast analogue of [equilibrium_landscape] (which only
        applies to broadcast games and spanning trees). *)
    let state_landscape ?(max_states = 2_000_000) spec =
      let graph = spec.graph in
      let paths =
        Array.map
          (fun (s, t) -> Array.of_list (simple_paths graph ~src:s ~dst:t ~limit:max_states))
          spec.pairs
      in
      let total =
        Array.fold_left
          (fun acc p ->
            let n = Array.length p in
            if n = 0 then invalid_arg "Exact.state_landscape: disconnected player";
            if acc > max_states / n then max_states + 1 else acc * n)
          1 paths
      in
      if total > max_states then
        invalid_arg "Exact.state_landscape: state space exceeds max_states";
      let n = n_players spec in
      let choice = Array.make n 0 in
      let optimum = ref None and best = ref None and worst = ref None in
      let n_states = ref 0 and n_eq = ref 0 in
      let rec enumerate i =
        if i = n then begin
          incr n_states;
          let state = Array.init n (fun k -> paths.(k).(choice.(k))) in
          let w = social_cost spec state in
          (match !optimum with Some o when F.leq o w -> () | _ -> optimum := Some w);
          if is_equilibrium spec state then begin
            incr n_eq;
            (match !best with
            | Some (bw, _) when F.leq bw w -> ()
            | _ -> best := Some (w, state));
            match !worst with
            | Some (ww, _) when F.leq w ww -> ()
            | _ -> worst := Some (w, state)
          end
        end
        else
          for c = 0 to Array.length paths.(i) - 1 do
            choice.(i) <- c;
            enumerate (i + 1)
          done
      in
      enumerate 0;
      {
        optimum = Option.get !optimum;
        best_eq = !best;
        worst_eq = !worst;
        n_states = !n_states;
        n_eq = !n_eq;
      }
  end
end

module Float_game = Make (Repro_field.Field.Float_field)
module Rat_game = Make (Repro_field.Field.Rat)
