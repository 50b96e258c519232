(** Branch-and-bound STABLE NETWORK DESIGN engine.

    The seed solver ([Snd]) enumerated every spanning tree and priced each
    with LP (3). This engine replaces the enumeration with a best-first
    search over the Lawler partition of spanning trees
    ({!Repro_graph.Wgraph.Make.Enumerate.by_weight}): trees arrive in
    nondecreasing weight, so [exact_small] can stop at the first affordable
    weight class, and the frontier computation can stop once a zero-cost
    (self-enforcing) tree has been priced. Two more layers cut LP work:

    - {b admissible pruning} — {!Lower_bounds.Make.broadcast_enforcement_lb}
      gives a certified lower bound on a tree's enforcement cost; a tree
      whose bound already exceeds the budget (or the best priced cost, for
      the frontier) is discarded unpriced;
    - {b pricing acceleration} — an LRU cache keyed by canonical sorted
      edge-id lists absorbs re-priced trees, and the float instantiation
      can opt into warm-started dual-simplex solves that reuse the previous
      tree's optimal basis ({!Float.warm_kernel_pricer}).

    Search is optionally domain-parallel: candidates are pulled from the
    weight-ordered stream in batches and priced on a persistent
    {!Repro_parallel.Parallel.Pool}, with a shared atomic incumbent letting
    workers skip trees a sibling has already beaten. Results are folded
    back in stream order, so every configuration returns exactly what the
    sequential seed solver returns (see DESIGN.md for the argument). *)

module Make (F : Repro_field.Field.S) = struct
  module Gm = Repro_game.Game.Make (F)
  module G = Gm.G
  module Sne = Sne_lp.Make (F)
  module Lb = Lower_bounds.Make (F)
  module Par = Repro_parallel.Parallel
  module Obs = Repro_obs.Obs

  let c_seen = Obs.counter "snd.trees_seen"
  let c_priced = Obs.counter "snd.trees_priced"
  let c_lb_pruned = Obs.counter "snd.lb_pruned"
  let c_inc_skips = Obs.counter "snd.incumbent_skips"
  let c_cache_hits = Obs.counter "snd.cache_hits"
  let c_cache_misses = Obs.counter "snd.cache_misses"
  let c_nodes = Obs.counter "snd.nodes_expanded"
  let c_msts = Obs.counter "snd.msts_computed"
  let c_batches = Obs.counter "snd.batches"
  let c_batch_items = Obs.counter "snd.batch_items"

  type design = {
    tree_edges : int list;
    weight : F.t;
    subsidy : F.t array;
    subsidy_cost : F.t;
  }

  type stats = {
    trees_seen : int;  (** pulled from the weight-ordered stream *)
    trees_priced : int;  (** LP (3) solves actually performed *)
    lb_pruned : int;  (** discarded by the enforcement lower bound *)
    incumbent_skips : int;  (** discarded because an incumbent already won *)
    cache_hits : int;  (** prices served from the LRU cache *)
    nodes_expanded : int;  (** Lawler subproblems branched *)
    msts_computed : int;  (** MST completions inside the generator *)
  }

  (* A pricer answers "minimum enforcement cost of this tree". [price]
     must be pure and thread-safe: parallel configurations call it from
     several domains at once. [solves] counts underlying LP solves (the
     cached wrapper shares its inner pricer's counter, so cache hits do
     not bump it). *)
  type pricer = {
    name : string;
    price : G.Tree.t -> int list -> Sne.result;
    solves : int Atomic.t;
    cache_hits : unit -> int;
    cache_misses : unit -> int;
  }

  let lp_pricer spec ~root =
    let solves = Atomic.make 0 in
    {
      name = "lp3";
      price =
        (fun tree _ids ->
          Atomic.incr solves;
          Sne.broadcast spec ~root tree);
      solves;
      cache_hits = (fun () -> 0);
      cache_misses = (fun () -> 0);
    }

  (* A sharable pricing cache: the LRU keyed by canonical sorted edge-id
     lists plus its mutex. Under churn the incremental path keeps one of
     these alive across instance deltas and evicts selectively instead of
     rebuilding the pricer (and losing every cached tree) per step. *)
  type price_cache = {
    pc_lru : (int list, Sne.result) Repro_util.Lru.t;
    pc_mu : Mutex.t;
  }

  let price_cache ~capacity =
    { pc_lru = Repro_util.Lru.create ~capacity; pc_mu = Mutex.create () }

  let pc_locked pc f =
    Mutex.lock pc.pc_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock pc.pc_mu) f

  (* Dirty-edge invalidation: evict exactly the entries whose tree
     contains a mutated edge (keys are the trees' sorted edge-id lists).
     A price for a tree CONTAINING a dirty edge is certainly stale; one
     for a tree avoiding every dirty edge can still drift through LP (3)
     deviation rows that reference the reweighted non-tree edge, so this
     granularity is for callers that re-certify prices downstream (the
     churn bench does) — callers needing exactness after an arbitrary
     reweight, or any structural delta, use [clear_price_cache]. *)
  let invalidate_edges pc dirty =
    match dirty with
    | [] -> ()
    | dirty ->
        let dirty = List.sort_uniq compare dirty in
        pc_locked pc (fun () ->
            Repro_util.Lru.filter pc.pc_lru ~f:(fun ids _ ->
                not (List.exists (fun id -> List.mem id dirty) ids)))

  let clear_price_cache pc = pc_locked pc (fun () -> Repro_util.Lru.clear pc.pc_lru)

  let cached_pricer ?(capacity = 256) ?cache inner =
    let pc = match cache with Some pc -> pc | None -> price_cache ~capacity in
    let locked f = pc_locked pc f in
    let cache = pc.pc_lru in
    {
      name = inner.name ^ "+lru";
      price =
        (fun tree ids ->
          match locked (fun () -> Repro_util.Lru.find cache ids) with
          | Some r -> r
          | None ->
              let r = inner.price tree ids in
              locked (fun () -> Repro_util.Lru.add cache ids r);
              r);
      solves = inner.solves;
      cache_hits = (fun () -> locked (fun () -> Repro_util.Lru.hits cache));
      cache_misses = (fun () -> locked (fun () -> Repro_util.Lru.misses cache));
    }

  type config = {
    domains : int;  (** 1 = sequential (no domains spawned) *)
    batch : int;  (** candidates priced per round; 0 = pick from [domains] *)
    cache : int;  (** LRU capacity for the default pricer; 0 = uncached *)
    use_lb : bool;  (** apply the enforcement-cost lower bound *)
  }

  let default_config = { domains = 1; batch = 0; cache = 256; use_lb = true }

  let zero_stats =
    {
      trees_seen = 0;
      trees_priced = 0;
      lb_pruned = 0;
      incumbent_skips = 0;
      cache_hits = 0;
      nodes_expanded = 0;
      msts_computed = 0;
    }

  (* Mirror one engine call's stats deltas into the process-wide registry
     (no-ops while observability is off). *)
  let record_stats (s : stats) ~misses =
    Obs.add c_seen s.trees_seen;
    Obs.add c_priced s.trees_priced;
    Obs.add c_lb_pruned s.lb_pruned;
    Obs.add c_inc_skips s.incumbent_skips;
    Obs.add c_cache_hits s.cache_hits;
    Obs.add c_cache_misses misses;
    Obs.add c_nodes s.nodes_expanded;
    Obs.add c_msts s.msts_computed

  (* The stream's total order: exact weight, then sorted edge ids. *)
  let beats (w, ids) (w', ids') =
    let c = F.compare w w' in
    c < 0 || (c = 0 && compare ids ids' < 0)

  (* A candidate pulled from the stream and scheduled for pricing. *)
  type cand = { cw : F.t; cids : int list; ctree : G.Tree.t; clb : F.t }

  let design_of_result (c : cand) (r : Sne.result) =
    {
      tree_edges = c.cids;
      weight = c.cw;
      subsidy = r.Sne.subsidy;
      subsidy_cost = r.Sne.cost;
    }

  let with_pool config f =
    if config.domains > 1 then begin
      let pool = Par.Pool.create ~domains:config.domains () in
      Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f (Some pool))
    end
    else f None

  let batch_size config =
    if config.batch > 0 then config.batch
    else if config.domains > 1 then 2 * config.domains
    else 1

  let default_pricer config spec ~root =
    let p = lp_pricer spec ~root in
    if config.cache > 0 then cached_pricer ~capacity:config.cache p else p

  (* Search driver shared by both entry points. [pull] extracts the next
     batch of candidates worth pricing (applying stop rules and bounds);
     [price] maps one candidate to an optional result (workers may decline,
     e.g. when an incumbent already wins); [fold] consumes results in
     stream order. *)
  let drive config pool ~pull ~price ~fold =
    let batch = batch_size config in
    let again = ref true in
    while !again do
      let cands = pull batch in
      let n = Array.length cands in
      if n = 0 then again := false
      else begin
        (* snd.batch_items / (snd.batches * batch) = parallel occupancy:
           how full the pricing rounds actually ran. *)
        Obs.incr c_batches;
        Obs.add c_batch_items n;
        let results =
          Obs.span "snd.price_batch" (fun () ->
              match pool with
              | None -> Array.map (fun c -> price (fun () -> ()) c) cands
              | Some p -> Par.Pool.map_cancellable p price cands)
        in
        Array.iteri (fun i r -> fold cands.(i) r) results
      end
    done

  (** Exact SND, returning the same design as the seed enumeration solver:
      the first affordable tree in (weight, sorted-edge-ids) order among
      the minimum-weight affordable class. Terminates as soon as the
      stream's weights exceed the incumbent's. *)
  let exact_small ?(config = default_config) ?pricer ?(poll = fun () -> ())
      ?(on_incumbent = fun (_ : design) -> ()) ~graph ~root ~budget () =
    Obs.span "snd.exact_small" @@ fun () ->
    let spec = Gm.broadcast ~graph ~root in
    let pricer =
      match pricer with Some p -> p | None -> default_pricer config spec ~root
    in
    let solves0 = Atomic.get pricer.solves in
    let hits0 = pricer.cache_hits () in
    let misses0 = pricer.cache_misses () in
    let ostats = G.Enumerate.fresh_stats () in
    let stream = ref (G.Enumerate.by_weight ~stats:ostats graph) in
    let seen = ref 0 and lb_pruned = ref 0 and inc_skips = ref 0 in
    let best = ref None in
    let exhausted = ref false in
    (* The seed's adoption test, with an exact tie-break on edge ids so
       equal-weight trees resolve to the lexicographically first one the
       seed's scan order would have kept. *)
    let promising w ids =
      match !best with
      | None -> true
      | Some d ->
          F.lt w d.weight
          || (F.compare w d.weight = 0 && compare ids d.tree_edges < 0)
    in
    let pull k =
      let acc = ref [] and count = ref 0 in
      while (not !exhausted) && !count < k do
        poll ();
        match !stream () with
        | Seq.Nil -> exhausted := true
        | Seq.Cons ((w, ids), rest) ->
            stream := rest;
            (* Weights only grow along the stream: once they exactly exceed
               the incumbent's, nothing later can beat it. (Exact ties can
               still improve the tie-break, so keep draining the class.) *)
            (match !best with
            | Some d when F.compare w d.weight > 0 -> exhausted := true
            | _ ->
                incr seen;
                if not (promising w ids) then incr inc_skips
                else begin
                  let tree = G.Tree.of_edge_ids graph ~root ids in
                  let lb =
                    if config.use_lb then Lb.broadcast_enforcement_lb spec ~root tree
                    else F.zero
                  in
                  if config.use_lb && F.lt budget lb then incr lb_pruned
                  else begin
                    acc := { cw = w; cids = ids; ctree = tree; clb = lb } :: !acc;
                    incr count
                  end
                end)
      done;
      Array.of_list (List.rev !acc)
    in
    with_pool config (fun pool ->
        (* Shared affordable incumbent in exact stream order: if a sibling
           has already certified an affordable tree that precedes candidate
           [c], then [c] cannot be the final answer and pricing it is
           wasted work. *)
        let incumbent = Par.Incumbent.create ~better:beats () in
        let price _check (c : cand) =
          (* Cancellation point before each LP solve; in parallel
             configurations this runs on worker domains, so [poll] must be
             thread-safe (the service's deadline cells are atomics). *)
          poll ();
          let dominated =
            match Par.Incumbent.get incumbent with
            | Some iv -> beats iv (c.cw, c.cids)
            | None -> false
          in
          if dominated then None
          else begin
            let r = pricer.price c.ctree c.cids in
            if F.leq r.Sne.cost budget then
              ignore (Par.Incumbent.improve incumbent (c.cw, c.cids));
            Some r
          end
        in
        let fold (c : cand) = function
          | None -> incr inc_skips
          | Some (r : Sne.result) ->
              if promising c.cw c.cids && F.leq r.Sne.cost budget then begin
                let d = design_of_result c r in
                best := Some d;
                (* Streaming hook: every strict improvement of the
                   affordable incumbent, in stream order ([fold] runs on
                   the driver domain even in parallel configurations, so
                   the sequence is deterministic for a fixed config). *)
                on_incumbent d
              end
        in
        drive config pool ~pull ~price ~fold;
        let stats =
          {
            trees_seen = !seen;
            trees_priced = Atomic.get pricer.solves - solves0;
            lb_pruned = !lb_pruned;
            incumbent_skips = !inc_skips;
            cache_hits = pricer.cache_hits () - hits0;
            nodes_expanded = ostats.G.Enumerate.nodes_expanded;
            msts_computed = ostats.G.Enumerate.msts_computed;
          }
        in
        record_stats stats ~misses:(pricer.cache_misses () - misses0);
        (!best, stats))

  (** The full (budget, weight) Pareto frontier, identical to the seed's
      price-everything computation. Incremental dominance filtering: a tree
      whose enforcement lower bound strictly exceeds the best priced cost so
      far is already dominated by an earlier (no heavier) tree and is never
      priced; once a zero-cost tree has been priced, every later tree is
      dominated and the stream stops. *)
  let pareto_frontier ?(config = default_config) ?pricer ?(poll = fun () -> ()) ~graph
      ~root () =
    Obs.span "snd.pareto_frontier" @@ fun () ->
    let spec = Gm.broadcast ~graph ~root in
    let pricer =
      match pricer with Some p -> p | None -> default_pricer config spec ~root
    in
    let solves0 = Atomic.get pricer.solves in
    let hits0 = pricer.cache_hits () in
    let misses0 = pricer.cache_misses () in
    let ostats = G.Enumerate.fresh_stats () in
    let stream = ref (G.Enumerate.by_weight ~stats:ostats graph) in
    let seen = ref 0 and lb_pruned = ref 0 in
    let min_cost = ref None in
    let priced = ref [] in
    let exhausted = ref false in
    let pull k =
      let acc = ref [] and count = ref 0 in
      while (not !exhausted) && !count < k do
        poll ();
        match !min_cost with
        | Some m when F.leq m F.zero -> exhausted := true
        | _ -> (
            match !stream () with
            | Seq.Nil -> exhausted := true
            | Seq.Cons ((w, ids), rest) ->
                stream := rest;
                incr seen;
                let tree = G.Tree.of_edge_ids graph ~root ids in
                let lb =
                  if config.use_lb then Lb.broadcast_enforcement_lb spec ~root tree
                  else F.zero
                in
                let dominated =
                  config.use_lb
                  &&
                  match !min_cost with
                  | Some m -> F.lt m lb
                  | None -> false
                in
                if dominated then incr lb_pruned
                else begin
                  acc := { cw = w; cids = ids; ctree = tree; clb = lb } :: !acc;
                  incr count
                end)
      done;
      Array.of_list (List.rev !acc)
    in
    with_pool config (fun pool ->
        (* Per-batch completion board for worker-side skipping: slot [j]
           holds tree [j]'s priced cost once known. A candidate whose lower
           bound exceeds an earlier (hence no heavier) sibling's priced cost
           is dominated. A single scalar incumbent would be unsound here —
           a *heavier* sibling's low cost says nothing about a lighter
           tree's frontier membership — so the scan is restricted to strict
           predecessors in stream order. *)
        let board = ref [||] in
        let price _check (slot, (c : cand)) =
          poll ();
          let dominated =
            config.use_lb
            && ((match !min_cost with Some m -> F.lt m c.clb | None -> false)
               ||
               let b = !board in
               let rec scan j =
                 j < slot
                 &&
                 match Atomic.get b.(j) with
                 | Some cj when F.lt cj c.clb -> true
                 | _ -> scan (j + 1)
               in
               scan 0)
          in
          if dominated then None
          else begin
            let r = pricer.price c.ctree c.cids in
            Atomic.set (!board).(slot) (Some r.Sne.cost);
            Some r
          end
        in
        let fold (_, (c : cand)) = function
          | None -> incr lb_pruned
          | Some (r : Sne.result) ->
              priced := design_of_result c r :: !priced;
              (match !min_cost with
              | Some m when F.compare m r.Sne.cost <= 0 -> ()
              | _ -> min_cost := Some r.Sne.cost)
        in
        let pull_slotted k =
          let cands = pull k in
          board := Array.init (Array.length cands) (fun _ -> Atomic.make None);
          Array.mapi (fun i c -> (i, c)) cands
        in
        drive config pool ~pull:pull_slotted ~price ~fold;
        (* The seed's postprocessing, verbatim: stable sort by (weight,
           cost), keep the strictly-decreasing-cost prefix points. *)
        let sorted =
          List.sort
            (fun a b ->
              let c = F.compare a.weight b.weight in
              if c <> 0 then c else F.compare a.subsidy_cost b.subsidy_cost)
            !priced
        in
        let frontier = ref [] in
        List.iter
          (fun d ->
            match !frontier with
            | b :: _ when F.leq b.subsidy_cost d.subsidy_cost -> ()
            | _ -> frontier := d :: !frontier)
          sorted;
        let stats =
          {
            trees_seen = !seen;
            trees_priced = Atomic.get pricer.solves - solves0;
            lb_pruned = !lb_pruned;
            incumbent_skips = 0;
            cache_hits = pricer.cache_hits () - hits0;
            nodes_expanded = ostats.G.Enumerate.nodes_expanded;
            msts_computed = ostats.G.Enumerate.msts_computed;
          }
        in
        record_stats stats ~misses:(pricer.cache_misses () - misses0);
        (List.rev !frontier, stats))
end

module Float = struct
  include Make (Repro_field.Field.Float_field)

  (** Warm-started pricing on the unboxed kernel: build LP (3) via
      {!Sne_lp.Float.broadcast_problem} and solve it with
      {!Repro_lp.Simplex_float.solve_dual_incremental}, seeding each solve
      with the optimal basis of the previous tree mapped through edge ids.
      Adjacent trees in the weight-ordered stream differ by few edges, so
      most of the basis carries over. Results agree with {!lp_pricer} up to
      float rounding but are {e not} bit-identical (different pivot paths);
      the default engine therefore keeps the functorized backend and this
      pricer is an explicit opt-in for benchmarks. *)
  let warm_kernel_pricer spec ~root =
    let module K = Repro_lp.Simplex_float in
    let graph = spec.Gm.graph in
    let m = G.n_edges graph in
    let solves = Atomic.make 0 in
    let mu = Mutex.create () in
    let last_basis = ref [] in
    let price tree _ids =
      let p, edge_of_var = Sne_lp.Float.broadcast_problem spec ~root tree in
      let var_of_edge = Array.make m (-1) in
      Array.iteri (fun k id -> var_of_edge.(id) <- k) edge_of_var;
      Mutex.lock mu;
      let prev = !last_basis in
      Mutex.unlock mu;
      let hint =
        List.filter_map
          (fun id -> if var_of_edge.(id) >= 0 then Some var_of_edge.(id) else None)
          prev
      in
      Atomic.incr solves;
      let st, outcome = K.solve_dual_incremental ~hint p in
      match outcome with
      | K.Optimal s ->
          let basis_edges = List.map (fun k -> edge_of_var.(k)) (K.basis_hint st) in
          Mutex.lock mu;
          last_basis := basis_edges;
          Mutex.unlock mu;
          let subsidy = Array.make m 0.0 in
          Array.iteri
            (fun k id ->
              subsidy.(id) <-
                Stdlib.Float.max 0.0
                  (Stdlib.Float.min s.K.values.(k) (G.weight graph id)))
            edge_of_var;
          { Sne.subsidy; cost = s.K.objective }
      | K.Infeasible | K.Unbounded ->
          failwith "Snd_search.warm_kernel_pricer: LP (3) solve failed (bug)"
    in
    {
      name = "lp3-warm";
      price;
      solves;
      cache_hits = (fun () -> 0);
      cache_misses = (fun () -> 0);
    }

  (** {!warm_kernel_pricer} on the sparse revised-simplex kernel
      ({!Repro_lp.Revised_sparse}): same LP (3) construction and
      cross-solve basis hinting, but the masters stay sparse and the
      crash start replays the previous tree's basic columns as
      Forrest–Tomlin updates of the LU factors instead of a dense
      rebuild. Same agreement caveats. *)
  let sparse_kernel_pricer spec ~root =
    let module K = Repro_lp.Revised_sparse in
    let graph = spec.Gm.graph in
    let m = G.n_edges graph in
    let solves = Atomic.make 0 in
    let mu = Mutex.create () in
    let last_basis = ref [] in
    let price tree _ids =
      let p, edge_of_var = Sne_lp.Float_sparse.broadcast_problem spec ~root tree in
      let var_of_edge = Array.make m (-1) in
      Array.iteri (fun k id -> var_of_edge.(id) <- k) edge_of_var;
      Mutex.lock mu;
      let prev = !last_basis in
      Mutex.unlock mu;
      let hint =
        List.filter_map
          (fun id -> if var_of_edge.(id) >= 0 then Some var_of_edge.(id) else None)
          prev
      in
      Atomic.incr solves;
      let st, outcome = K.solve_dual_incremental ~hint p in
      match outcome with
      | K.Optimal s ->
          let basis_edges = List.map (fun k -> edge_of_var.(k)) (K.basis_hint st) in
          Mutex.lock mu;
          last_basis := basis_edges;
          Mutex.unlock mu;
          let subsidy = Array.make m 0.0 in
          Array.iteri
            (fun k id ->
              subsidy.(id) <-
                Stdlib.Float.max 0.0
                  (Stdlib.Float.min s.K.values.(k) (G.weight graph id)))
            edge_of_var;
          { Sne.subsidy; cost = s.K.objective }
      | K.Infeasible | K.Unbounded ->
          failwith "Snd_search.sparse_kernel_pricer: LP (3) solve failed (bug)"
    in
    {
      name = "lp3-sparse";
      price;
      solves;
      cache_hits = (fun () -> 0);
      cache_misses = (fun () -> 0);
    }
end

module Rat = Make (Repro_field.Field.Rat)
