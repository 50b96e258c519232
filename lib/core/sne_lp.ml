(** STABLE NETWORK ENFORCEMENT via linear programming (Theorem 1).

    Three formulations from Section 3, all computing a minimum-cost subsidy
    assignment enforcing a given state as an equilibrium:

    - [broadcast]: the compact LP (3) for broadcast games and spanning-tree
      targets — n variables, O(|E|) constraints, using the LCA cancellation
      from Lemma 2's proof.
    - [poly]: the polynomial-size LP (2) for general games — shortest-path
      potentials pi_i(v) simulate the separation oracle inside the LP.
    - [cutting_plane]: the exponential LP (1) solved by constraint
      generation. The paper invokes the ellipsoid method with a Dijkstra
      separation oracle; we run the same oracle inside a cutting-plane loop
      (the standard practical stand-in; see DESIGN.md §2), re-solving with
      the simplex solver as violated path constraints are discovered.

    SNE is always feasible (fully subsidizing the target state works), so
    all three return a subsidy assignment; an [Infeasible]/[Unbounded]
    answer from the LP solver indicates a bug and raises. *)

module Make_backend
    (F : Repro_field.Field.S)
    (Lp : Repro_lp.Lp_intf.BACKEND with type num = F.t) =
struct
  module Gm = Repro_game.Game.Make (F)
  module W = Repro_game.Weighted.Make (F)
  module G = Gm.G
  module Lp = Lp

  type result = {
    subsidy : F.t array; (* indexed by edge id; zero outside the target *)
    cost : F.t; (* total subsidies *)
  }

  type cutting_plane_stats = {
    rounds : int;
    generated : int;
    converged : bool;
    pivots : int; (* total simplex pivots across all master solves *)
  }

  let ok_or_fail ~what = function
    | Lp.Optimal s -> s
    | Lp.Infeasible -> failwith (what ^ ": LP infeasible (SNE is always feasible; bug)")
    | Lp.Unbounded -> failwith (what ^ ": LP unbounded (objective is >= 0; bug)")

  let solve_or_fail ~what p = ok_or_fail ~what (Lp.solve p)

  (* Solver-level observability (Repro_obs registry; both field
     instantiations share the same named counters). *)
  module Obs = Repro_obs.Obs

  let c_broadcast = Obs.counter "sne.broadcast_solves"
  let c_weighted = Obs.counter "sne.weighted_broadcast_solves"
  let c_poly = Obs.counter "sne.poly_solves"
  let c_rounds = Obs.counter "sne.cut_rounds"
  let c_cuts = Obs.counter "sne.cuts_generated"
  let c_nonconverged = Obs.counter "sne.nonconverged"
  let c_sep_batches = Obs.counter "sne.separate.batches"
  let c_sep_oracle = Obs.counter "sne.separate.oracle_calls"
  let c_sep_parallel = Obs.counter "sne.separate.parallel_batches"
  let c_sep_dedup = Obs.counter "sne.separate.cuts_deduped"
  let c_sep_pruned = Obs.counter "sne.separate.pruned"
  let c_sep_settled = Obs.counter "sne.separate.settled"


  (* Amortized GC minor words per completed cut round (clamp + separation
     sweep + master re-solve), the separation-path sibling of
     [lp.sparse.allocs_per_pivot]. Metered only while obs is enabled and
     never read by the solver, so obs on/off cannot change results. *)
  let g_round_words = Obs.gauge "sne.sep_round_words"
  let round_words = Atomic.make 0.0
  let round_count = Atomic.make 0

  let atomic_addf a d =
    let rec go () =
      let v = Atomic.get a in
      if not (Atomic.compare_and_set a v (v +. d)) then go ()
    in
    go ()

  let record_round w0 =
    atomic_addf round_words (Gc.minor_words () -. w0);
    let r = 1 + Atomic.fetch_and_add round_count 1 in
    Obs.set g_round_words (Atomic.get round_words /. float_of_int r)

  (* ---------------------------------------------------------------- *)
  (* Batched separation                                                *)
  (* ---------------------------------------------------------------- *)

  (** Run the per-player oracles of one separation round: [oracle i] for
      every player, results in player order. With a [pool] of size > 1
      the best-response Dijkstras fan out over its domains (guided
      chunking absorbs the uneven per-player cost; each domain keeps its
      own heap scratch); without one, or on a single-domain pool, the
      sweep is a plain serial loop. Exposed so the benches can time
      serial vs parallel separation on identical subsidy vectors. *)
  let oracle_sweep ?pool ~n_players (oracle : int -> 'a) : 'a array =
    Obs.incr c_sep_batches;
    Obs.add c_sep_oracle n_players;
    match pool with
    | Some p when Repro_parallel.Parallel.Pool.size p > 1 && n_players > 1 ->
        Obs.incr c_sep_parallel;
        Repro_parallel.Parallel.Pool.map p oracle (Array.init n_players Fun.id)
    | _ -> Array.init n_players oracle

  (* One separation round over a bounded oracle ([Some (cost, path)]
     exactly for the improving players): the oracles fan out, then the
     cuts are built serially in player order, so the cut list does not
     depend on the pool. The search counters are read once per oracle
     call off that domain's Dijkstra scratch, never per node; [None]
     means the current-cost bound stopped the search. *)
  let separate ?pool ~n_players ~cut oracle =
    let responses =
      oracle_sweep ?pool ~n_players (fun i ->
          let r = oracle i in
          if Obs.enabled () then begin
            Obs.add c_sep_settled (G.last_settled ());
            if Option.is_none r then Obs.incr c_sep_pruned
          end;
          r)
    in
    let cuts = ref [] in
    for i = n_players - 1 downto 0 do
      match responses.(i) with Some (_, path) -> cuts := cut i path :: !cuts | None -> ()
    done;
    !cuts

  (* Within-round cut dedup, keyed on the mathematical content (sorted
     coefficients, relation, rhs) and not the label: symmetric deviations
     routinely produce the same inequality for different players, and
     appending both just grows the master. *)
  let cut_key (c : Lp.constr) =
    let coeffs = List.sort (fun (a, _) (b, _) -> compare a b) c.Lp.coeffs in
    let b = Buffer.create 64 in
    List.iter
      (fun (k, v) ->
        Buffer.add_string b (string_of_int k);
        Buffer.add_char b ':';
        Buffer.add_string b (F.to_string v);
        Buffer.add_char b ';')
      coeffs;
    Buffer.add_string b
      (match c.Lp.relation with Lp.Leq -> "<=" | Lp.Geq -> ">=" | Lp.Eq -> "=");
    Buffer.add_string b (F.to_string c.Lp.rhs);
    Buffer.contents b

  let dedup_cuts cuts =
    let seen = Hashtbl.create 16 in
    let kept =
      List.filter
        (fun c ->
          let k = cut_key c in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        cuts
    in
    Obs.add c_sep_dedup (List.length cuts - List.length kept);
    kept

  (* ---------------------------------------------------------------- *)
  (* LP (3): broadcast games, spanning-tree target                     *)
  (* ---------------------------------------------------------------- *)

  (** The LP (3) instance for enforcing [tree], without solving it: the
      problem plus the variable layout ([edge_of_var.(k)] is the tree-edge
      id of LP variable [k]). The branch-and-bound SND engine uses this to
      drive the kernel's cross-solve warm start directly. *)
  let broadcast_problem spec ~root (tree : G.Tree.t) =
    let graph = spec.Gm.graph in
    let m = G.n_edges graph in
    (* One LP variable per tree edge. *)
    let tree_edges = G.Tree.edge_ids tree in
    let var_of_edge = Array.make m (-1) in
    List.iteri (fun k id -> var_of_edge.(id) <- k) tree_edges;
    let edge_of_var = Array.of_list tree_edges in
    let n_vars = Array.length edge_of_var in
    let lower = Array.make n_vars (Some F.zero) in
    let upper = Array.map (fun id -> Some (G.weight graph id)) edge_of_var in
    let constraints = ref [] in
    let add_constraint u edge_id v =
      (* Player at u deviating to (u,v) then v's tree path. q1 = u -> lca,
         q2 = v -> lca; common segment above the LCA cancels. *)
      let l = G.Tree.lca tree u v in
      let coeffs = Hashtbl.create 8 in
      let rhs = ref (G.weight graph edge_id) in
      let touch ~on_q1 id =
        let n = G.Tree.usage tree id in
        let d = F.of_int (if on_q1 then n else n + 1) in
        let w_over_d = F.div (G.weight graph id) d in
        let c = F.div F.one d in
        let k = var_of_edge.(id) in
        let cur = try Hashtbl.find coeffs k with Not_found -> F.zero in
        if on_q1 then begin
          (* LHS term (w - b)/n: contributes -b/n left, -w/n right. *)
          Hashtbl.replace coeffs k (F.sub cur c);
          rhs := F.sub !rhs w_over_d
        end
        else begin
          (* RHS term (w - b)/(n+1): contributes +b/(n+1) left, +w/(n+1) right. *)
          Hashtbl.replace coeffs k (F.add cur c);
          rhs := F.add !rhs w_over_d
        end
      in
      List.iter (touch ~on_q1:true) (G.Tree.path_between tree u l);
      List.iter (touch ~on_q1:false) (G.Tree.path_between tree v l);
      constraints :=
        {
          Lp.coeffs = Hashtbl.fold (fun k c acc -> (k, c) :: acc) coeffs [];
          relation = Lp.Leq;
          rhs = !rhs;
          label = Printf.sprintf "dev(%d,[%d],%d)" u edge_id v;
        }
        :: !constraints
    in
    G.fold_edges graph ~init:() ~f:(fun () e ->
        if not (G.Tree.mem_edge tree e.G.id) then
          List.iter
            (fun u -> if u <> root then add_constraint u e.G.id (G.other graph e.G.id u))
            [ e.G.u; e.G.v ]);
    let p =
      Lp.make_problem ~n_vars
        ~var_name:(fun k -> Printf.sprintf "b_e%d" edge_of_var.(k))
        ~minimize:(List.init n_vars (fun k -> (k, F.one)))
        ~constraints:!constraints ~lower ~upper ()
    in
    (p, edge_of_var)

  (** Clamp an LP (3) solution into an edge-indexed subsidy assignment. *)
  let broadcast_extract spec (s : Lp.solution) edge_of_var =
    let graph = spec.Gm.graph in
    let subsidy = Array.make (G.n_edges graph) F.zero in
    Array.iteri
      (fun k id -> subsidy.(id) <- F.max F.zero (F.min s.Lp.values.(k) (G.weight graph id)))
      edge_of_var;
    { subsidy; cost = s.Lp.objective }

  (** Minimum-cost subsidies enforcing the spanning tree [tree] in the
      broadcast game [spec] rooted at [root]. *)
  let broadcast spec ~root (tree : G.Tree.t) =
    Obs.incr c_broadcast;
    Obs.span "sne.broadcast" (fun () ->
        let p, edge_of_var = broadcast_problem spec ~root tree in
        let s = solve_or_fail ~what:"Sne_lp.broadcast" p in
        broadcast_extract spec s edge_of_var)

  (* ---------------------------------------------------------------- *)
  (* Weighted broadcast LP: the Section 6 extension to weighted players *)
  (* ---------------------------------------------------------------- *)

  (** Minimum-cost subsidies enforcing a spanning tree of a {e weighted}
      broadcast game (demands d_i; shares proportional to demand). Same
      single-non-tree-edge constraint family as LP (3), with demand sums
      D_a in place of usage counts and the deviating player's demand added
      below the LCA. *)
  let weighted_broadcast (wspec : W.spec) ~root (tree : G.Tree.t) =
    let graph = W.graph wspec in
    let m = G.n_edges graph in
    let dem = W.Broadcast.tree_demand wspec tree in
    let tree_edges = G.Tree.edge_ids tree in
    let var_of_edge = Array.make m (-1) in
    List.iteri (fun k id -> var_of_edge.(id) <- k) tree_edges;
    let edge_of_var = Array.of_list tree_edges in
    let n_vars = Array.length edge_of_var in
    let lower = Array.make n_vars (Some F.zero) in
    let upper = Array.map (fun id -> Some (G.weight graph id)) edge_of_var in
    let constraints = ref [] in
    let add_constraint u edge_id v =
      let du = wspec.W.demand.(Gm.broadcast_player ~root u) in
      let l = G.Tree.lca tree u v in
      let coeffs = Hashtbl.create 8 in
      let rhs = ref (G.weight graph edge_id) in
      let touch ~on_q1 id =
        let denom = if on_q1 then dem id else F.add (dem id) du in
        let scale = F.div du denom in
        let k = var_of_edge.(id) in
        let cur = try Hashtbl.find coeffs k with Not_found -> F.zero in
        if on_q1 then begin
          Hashtbl.replace coeffs k (F.sub cur scale);
          rhs := F.sub !rhs (F.mul scale (G.weight graph id))
        end
        else begin
          Hashtbl.replace coeffs k (F.add cur scale);
          rhs := F.add !rhs (F.mul scale (G.weight graph id))
        end
      in
      List.iter (touch ~on_q1:true) (G.Tree.path_between tree u l);
      List.iter (touch ~on_q1:false) (G.Tree.path_between tree v l);
      constraints :=
        {
          Lp.coeffs = Hashtbl.fold (fun k c acc -> (k, c) :: acc) coeffs [];
          relation = Lp.Leq;
          rhs = !rhs;
          label = Printf.sprintf "wdev(%d,[%d],%d)" u edge_id v;
        }
        :: !constraints
    in
    G.fold_edges graph ~init:() ~f:(fun () e ->
        if not (G.Tree.mem_edge tree e.G.id) then
          List.iter
            (fun u -> if u <> root then add_constraint u e.G.id (G.other graph e.G.id u))
            [ e.G.u; e.G.v ]);
    let p =
      Lp.make_problem ~n_vars
        ~var_name:(fun k -> Printf.sprintf "b_e%d" edge_of_var.(k))
        ~minimize:(List.init n_vars (fun k -> (k, F.one)))
        ~constraints:!constraints ~lower ~upper ()
    in
    Obs.incr c_weighted;
    let s = Obs.span "sne.weighted_broadcast" (fun () ->
        solve_or_fail ~what:"Sne_lp.weighted_broadcast" p)
    in
    let subsidy = Array.make m F.zero in
    Array.iteri
      (fun k id -> subsidy.(id) <- F.max F.zero (F.min s.Lp.values.(k) (G.weight graph id)))
      edge_of_var;
    { subsidy; cost = s.Lp.objective }

  (* ---------------------------------------------------------------- *)
  (* Shared constraint-generation driver                               *)
  (* ---------------------------------------------------------------- *)

  (* The cutting-plane loop over an oracle [find_cuts] that, given the
     clamped subsidy vector of the current master optimum, returns the
     violated path constraints (empty = converged). [warm] picks between
     the backend's incremental path — append each cut to the live tableau
     and re-optimize from the previous basis — and cold restarts that
     re-solve the accumulated master from scratch every round. Both reach
     the same optimum; the stats record how many pivots each spent. *)
  let cutting_core ~what ~warm ~max_rounds ~poll ~on_round ~graph base ~find_cuts =
    let m = G.n_edges graph in
    (* One clamp buffer per cutting-plane run, reused across rounds: the
       oracles only read [~subsidy] during their round (including from
       pool domains — reads race with nothing, the buffer is stable for
       the round), and [finish] copies it before it escapes. *)
    let clamp_buf = Array.make m F.zero in
    let clamp (s : Lp.solution) =
      for id = 0 to m - 1 do
        clamp_buf.(id) <- F.max F.zero (F.min s.Lp.values.(id) (G.weight graph id))
      done;
      clamp_buf
    in
    let generated = ref 0 in
    let cold_constraints = ref base.Lp.constraints in
    let cold_pivots = ref 0 in
    let warm_state = ref None in
    let initial () =
      Obs.span "sne.master" (fun () ->
          let st, o = Lp.solve_incremental base in
          if warm then warm_state := Some st else cold_pivots := Lp.pivots st;
          ok_or_fail ~what o)
    in
    let apply_cuts cuts =
      generated := !generated + List.length cuts;
      Obs.add c_cuts (List.length cuts);
      Obs.span "sne.master" (fun () ->
          match !warm_state with
          | Some st ->
              let last =
                List.fold_left (fun _ c -> Lp.add_constraint st c) Lp.Infeasible cuts
              in
              ok_or_fail ~what last
          | None ->
              cold_constraints := List.rev_append cuts !cold_constraints;
              let st, o =
                Lp.solve_incremental { base with Lp.constraints = !cold_constraints }
              in
              cold_pivots := !cold_pivots + Lp.pivots st;
              ok_or_fail ~what o)
    in
    let total_pivots () =
      match !warm_state with Some st -> Lp.pivots st | None -> !cold_pivots
    in
    let rec loop round (s : Lp.solution) =
      (* Cancellation point, once per master/separation round: a service
         deadline raising here aborts the loop between pivot batches
         instead of running the master to convergence. *)
      poll ();
      let meter = Obs.enabled () in
      let w0 = if meter then Gc.minor_words () else 0.0 in
      let subsidy = clamp s in
      let finish converged =
        if not converged then Obs.incr c_nonconverged;
        ( { subsidy = Array.copy subsidy; cost = s.Lp.objective },
          {
            rounds = round;
            generated = !generated;
            converged;
            pivots = total_pivots ();
          } )
      in
      match Obs.span "sne.separate" (fun () -> dedup_cuts (find_cuts ~subsidy)) with
      | [] -> finish true
      | _ when round >= max_rounds -> finish false
      | cuts ->
          Obs.incr c_rounds;
          (* Progress hook, fired before the master re-solve so a
             streaming client sees the round while it is still being
             worked on. Runs on the solving domain; keep it cheap. *)
          on_round ~round ~cuts:(List.length cuts);
          let s' = apply_cuts cuts in
          if meter then record_round w0;
          loop (round + 1) s'
    in
    Obs.span "sne.cutting_plane" (fun () -> loop 0 (initial ()))

  (* The box-only master: minimize total subsidies with 0 <= b_a <= w_a. *)
  let box_master graph =
    let m = G.n_edges graph in
    Lp.make_problem ~n_vars:m
      ~var_name:(fun id -> Printf.sprintf "b_e%d" id)
      ~minimize:(List.init m (fun id -> (id, F.one)))
      ~constraints:[]
      ~lower:(Array.make m (Some F.zero))
      ~upper:(Array.init m (fun id -> Some (G.weight graph id)))
      ()

  (** Exact weighted SNE by constraint generation. [weighted_broadcast]
      only guards against single-non-tree-edge deviations; for {e unit}
      demands Lemma 2 makes that sufficient, but for general demands it is
      not (the test suite exhibits instances where a two-non-tree-edge
      deviation beats every one-edge deviation — the exchange argument in
      Lemma 2's proof genuinely needs unit demands). So the exact solver
      runs the cutting-plane loop with the weighted best-response oracle,
      warm-starting each master re-solve from the previous basis. *)
  let weighted_cutting_plane ?(warm = true) ?(max_rounds = 500) ?pool
      ?(poll = fun () -> ()) ?(on_round = fun ~round:_ ~cuts:_ -> ())
      (wspec : W.spec) ~(state : Gm.state) =
    let graph = W.graph wspec in
    let du_all = W.demand_usage wspec state in
    (* Player i's cost on her current path must not exceed her cost on the
       deviation path p: sum_{a in T_i} (w-b) d_i/D_a <= sum_{a in p}
       (w-b) d_i/(D_a + d_i - [i uses a] d_i). *)
    let path_constraint i path =
      let di = wspec.W.demand.(i) in
      let mine = Gm.own_mask wspec.W.base state i in
      let coeffs = Hashtbl.create 8 in
      let rhs = ref F.zero in
      let touch ~side id denom =
        let scale = F.div di denom in
        let cur = try Hashtbl.find coeffs id with Not_found -> F.zero in
        match side with
        | `Current ->
            Hashtbl.replace coeffs id (F.sub cur scale);
            rhs := F.sub !rhs (F.mul scale (G.weight graph id))
        | `Deviation ->
            Hashtbl.replace coeffs id (F.add cur scale);
            rhs := F.add !rhs (F.mul scale (G.weight graph id))
      in
      List.iter (fun id -> touch ~side:`Current id du_all.(id)) state.(i);
      List.iter
        (fun id ->
          let others = if Bytes.get mine id <> '\000' then F.sub du_all.(id) di else du_all.(id) in
          touch ~side:`Deviation id (F.add others di))
        path;
      {
        Lp.coeffs = Hashtbl.fold (fun k c acc -> (k, c) :: acc) coeffs [];
        relation = Lp.Leq;
        rhs = !rhs;
        label = Printf.sprintf "wpath(p%d)" i;
      }
    in
    let find_cuts ~subsidy =
      let prices = W.sweep_prices ~subsidy wspec ~du:du_all in
      separate ?pool ~n_players:(W.n_players wspec) ~cut:path_constraint
        (W.improving_response prices wspec state)
    in
    cutting_core ~what:"Sne_lp.weighted_cutting_plane" ~warm ~max_rounds ~poll
      ~on_round ~graph
      (box_master graph) ~find_cuts

  (* ---------------------------------------------------------------- *)
  (* LP (2): general games, polynomial size                            *)
  (* ---------------------------------------------------------------- *)

  (** Minimum-cost subsidies enforcing [state] in a general network design
      game, via the polynomial LP with shortest-path potentials. *)
  let poly spec ~(state : Gm.state) =
    Obs.incr c_poly;
    Obs.span "sne.poly" @@ fun () ->
    let graph = spec.Gm.graph in
    let m = G.n_edges graph in
    let n = G.n_nodes graph in
    let np = Gm.n_players spec in
    let usage = Gm.usage spec state in
    (* Variable layout: [0, m) subsidies; then pi_i(v) at m + i*n + v. *)
    let pi i v = m + (i * n) + v in
    let n_vars = m + (np * n) in
    let lower = Array.make n_vars (Some F.zero) in
    let upper = Array.make n_vars None in
    for id = 0 to m - 1 do
      upper.(id) <- Some (G.weight graph id)
    done;
    for i = 0 to np - 1 do
      let s, _ = spec.Gm.pairs.(i) in
      (* pi_i(s_i) = 0. *)
      upper.(pi i s) <- Some F.zero
    done;
    let constraints = ref [] in
    for i = 0 to np - 1 do
      let mine = Gm.own_mask spec state i in
      (* Edge relaxations: pi_i(y) <= pi_i(x) + (w - b)/d, both directions. *)
      G.fold_edges graph ~init:() ~f:(fun () e ->
          let d = F.of_int (usage.(e.G.id) + 1 - if Bytes.get mine e.G.id <> '\000' then 1 else 0) in
          let w_over_d = F.div e.G.weight d in
          let b_coeff = F.div F.one d in
          let relax x y =
            constraints :=
              {
                Lp.coeffs = [ (pi i y, F.one); (pi i x, F.neg F.one); (e.G.id, b_coeff) ];
                relation = Lp.Leq;
                rhs = w_over_d;
                label = Printf.sprintf "relax(p%d,e%d,%d->%d)" i e.G.id x y;
              }
              :: !constraints
          in
          relax e.G.u e.G.v;
          relax e.G.v e.G.u);
      (* pi_i(t_i) >= cost_i(T; b). *)
      let _, t = spec.Gm.pairs.(i) in
      let coeffs = Hashtbl.create 8 in
      Hashtbl.replace coeffs (pi i t) F.one;
      let rhs = ref F.zero in
      List.iter
        (fun id ->
          let na = F.of_int usage.(id) in
          let cur = try Hashtbl.find coeffs id with Not_found -> F.zero in
          Hashtbl.replace coeffs id (F.add cur (F.div F.one na));
          rhs := F.add !rhs (F.div (G.weight graph id) na))
        state.(i);
      constraints :=
        {
          Lp.coeffs = Hashtbl.fold (fun k c acc -> (k, c) :: acc) coeffs [];
          relation = Lp.Geq;
          rhs = !rhs;
          label = Printf.sprintf "stable(p%d)" i;
        }
        :: !constraints
    done;
    let p =
      Lp.make_problem ~n_vars
        ~var_name:(fun k ->
          if k < m then Printf.sprintf "b_e%d" k
          else Printf.sprintf "pi_p%d(%d)" ((k - m) / n) ((k - m) mod n))
        ~minimize:(List.init m (fun id -> (id, F.one)))
        ~constraints:!constraints ~lower ~upper ()
    in
    let s = solve_or_fail ~what:"Sne_lp.poly" p in
    let subsidy =
      Array.init m (fun id -> F.max F.zero (F.min s.Lp.values.(id) (G.weight graph id)))
    in
    { subsidy; cost = s.Lp.objective }

  (* ---------------------------------------------------------------- *)
  (* LP (1): constraint generation with the Dijkstra separation oracle *)
  (* ---------------------------------------------------------------- *)

  (** The LP (1) constraint pinning player [i]'s cost on her current
      strategy below the cost of deviation path [path]:
      cost_i(T;b) <= sum_{a in p} (w_a - b_a)/d_a. Terms for edges on
      both sides cancel via the shared hashtable. Exposed so the
      incremental session can rebuild its retained cut pool against the
      {e current} state/usage/weights after a delta — any u->root path
      yields a valid member of the constraint family when its
      coefficients are recomputed this way. *)
  let lp1_path_constraint spec ~(state : Gm.state) ~(usage : int array) i path =
    let graph = spec.Gm.graph in
    let mine = Gm.own_mask spec state i in
    let coeffs = Hashtbl.create 8 in
    let rhs = ref F.zero in
    let touch ~side id d =
      let d = F.of_int d in
      let cur = try Hashtbl.find coeffs id with Not_found -> F.zero in
      let c = F.div F.one d in
      let w_over_d = F.div (G.weight graph id) d in
      match side with
      | `Current ->
          Hashtbl.replace coeffs id (F.sub cur c);
          rhs := F.sub !rhs w_over_d
      | `Deviation ->
          Hashtbl.replace coeffs id (F.add cur c);
          rhs := F.add !rhs w_over_d
    in
    List.iter (fun id -> touch ~side:`Current id usage.(id)) state.(i);
    List.iter
      (fun id ->
        touch ~side:`Deviation id (usage.(id) + 1 - if Bytes.get mine id <> '\000' then 1 else 0))
      path;
    {
      Lp.coeffs = Hashtbl.fold (fun k c acc -> (k, c) :: acc) coeffs [];
      relation = Lp.Leq;
      rhs = !rhs;
      label = Printf.sprintf "path(p%d)" i;
    }

  (** Solve the exponential LP (1) by cutting planes: start with only the
      box constraints, and repeatedly add the constraint of each player's
      cheapest deviating path (found by [Gm.improving_response], the
      paper's H_i shortest-path oracle stopped at the target or at the
      player's current cost) until none is violated. Each
      master re-solve warm-starts from the previous optimal basis
      ([warm = false] forces the old cold restarts, kept for the
      pivot-budget benchmarks and the warm-vs-cold property tests). *)
  let cutting_plane ?(warm = true) ?(max_rounds = 500) ?pool ?(poll = fun () -> ())
      ?(on_round = fun ~round:_ ~cuts:_ -> ()) spec ~(state : Gm.state) =
    let graph = spec.Gm.graph in
    let usage = Gm.usage spec state in
    let path_constraint i path = lp1_path_constraint spec ~state ~usage i path in
    let find_cuts ~subsidy =
      let prices = Gm.sweep_prices ~subsidy spec ~usage in
      separate ?pool ~n_players:(Gm.n_players spec) ~cut:path_constraint
        (Gm.improving_response prices spec state)
    in
    cutting_core ~what:"Sne_lp.cutting_plane" ~warm ~max_rounds ~poll ~on_round
      ~graph (box_master graph) ~find_cuts
end

module Make (F : Repro_field.Field.S) = Make_backend (F) (Repro_lp.Simplex.Make (F))

(* The float instantiation runs on the specialized unboxed kernel (with its
   genuine dual-simplex warm start); the exact-rational one keeps the
   functorized simplex as the correctness oracle. *)
module Float = Make_backend (Repro_field.Field.Float_field) (Repro_lp.Simplex_float)

(* Same field, same games, sparse revised-simplex masters: the kernel the
   cutting-plane solvers select with [--backend sparse]. *)
module Float_sparse =
  Make_backend (Repro_field.Field.Float_field) (Repro_lp.Revised_sparse)

module Rat = Make (Repro_field.Field.Rat)
