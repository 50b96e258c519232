(* Command-line front end for the subsidy toolkit.

   sne_cli solve      — enforce the MST of a random broadcast instance with
                        a chosen solver and print the subsidy plan
   sne_cli landscape  — exact equilibrium landscape / price of stability of
                        a small random instance
   sne_cli lower-bound — sweep one of the paper's lower-bound families
   sne_cli reduction  — build and verify one of the hardness reductions
   sne_cli pareto     — the budget/weight Pareto frontier of a small instance
   sne_cli design     — exact SND via the branch-and-bound engine
   sne_cli dynamics   — run best-response dynamics from the MST
   sne_cli serve      — request service over stdio: newline-delimited
                        requests in, one-line JSON responses out *)

module Gm = Repro_game.Game.Float_game
module G = Gm.G
module Sne = Repro_core.Sne_lp.Float
module Snes = Repro_core.Sne_lp.Float_sparse
module Par = Repro_parallel.Parallel
module Enforce = Repro_core.Enforce
module Aon = Repro_core.Aon.Float
module Lb = Repro_core.Lower_bounds.Float
module Instances = Repro_core.Instances
module Table = Repro_util.Table
open Cmdliner

(* ---------------------------------------------------------------- *)
(* Shared arguments                                                  *)
(* ---------------------------------------------------------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (reproducible).")

let nodes_arg =
  Arg.(value & opt int 10 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let extra_arg =
  Arg.(value & opt int 6 & info [ "extra" ] ~docv:"K" ~doc:"Extra (non-tree) edges.")

let make_instance seed n extra =
  Instances.random ~dist:(Instances.Integer 10) ~n ~extra ~seed ()

let file_arg =
  Arg.(value & opt (some file) None
       & info [ "file" ] ~docv:"FILE"
           ~doc:"Load the instance from FILE (see lib/core/serial.ml for the \
                 format) instead of generating one.")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print the observability report (counters, gauges, span tree) \
                 after the run.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc:"Write the span-tree trace as JSON to FILE.")

(* Every subcommand body runs under this wrapper: enable the observability
   registry when --stats/--trace ask for it, run the body, emit the report
   and/or trace file, and only then turn [Error] into exit code 1 — so a
   failing run still ships its evidence. *)
let with_obs show_stats trace f =
  let module Obs = Repro_obs.Obs in
  let wanted = show_stats || trace <> None in
  if wanted then begin
    Obs.reset ();
    Obs.set_enabled true
  end;
  let r = f () in
  if wanted then begin
    Obs.set_enabled false;
    if show_stats then print_string (Obs.render_stats ());
    match trace with
    | Some path -> Repro_util.Bench_json.write_file ~path (Obs.trace_json ())
    | None -> ()
  end;
  match r with
  | Ok () -> ()
  | Error msg ->
      flush stdout;
      prerr_endline ("sne_cli: " ^ msg);
      exit 1

(* Either the instance from --file, or a generated one. Returns
   (graph, root, target tree). *)
let resolve_instance file seed n extra =
  match file with
  | Some path ->
      let t = Repro_core.Serial.Float.load path in
      let tree = Repro_core.Serial.Float.target_tree t in
      (t.Repro_core.Serial.Float.graph, t.Repro_core.Serial.Float.root, tree)
  | None ->
      let inst = make_instance seed n extra in
      (inst.Instances.graph, inst.Instances.root, Instances.mst_tree inst)

(* ---------------------------------------------------------------- *)
(* solve                                                             *)
(* ---------------------------------------------------------------- *)

let solve_cmd =
  let method_arg =
    let methods =
      [ ("lp3", `Lp3); ("lp2", `Lp2); ("cut", `Cut); ("thm6", `Thm6);
        ("aon-exact", `AonExact); ("aon-greedy", `AonGreedy) ]
    in
    Arg.(value & opt (enum methods) `Lp3
         & info [ "method" ] ~docv:"METHOD"
             ~doc:"Solver: lp3 (broadcast LP), lp2 (polynomial LP), cut \
                   (cutting plane), thm6 (Theorem 6 construction), \
                   aon-exact, aon-greedy.")
  in
  let max_rounds_arg =
    Arg.(value & opt int 500
         & info [ "max-rounds" ] ~docv:"R"
             ~doc:"Cutting-plane round limit (cut method only).")
  in
  let backend_arg =
    Arg.(value & opt (enum [ ("dense", `Dense); ("sparse", `Sparse) ]) `Dense
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"LP kernel for the lp3/lp2/cut methods: dense (the unboxed \
                   tableau kernel) or sparse (the revised simplex over a sparse \
                   LU basis). Both return the same optima; sparse wins on large \
                   cutting-plane masters.")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Worker domains for the cut method's separation oracles \
                   (1 = serial).")
  in
  let run seed n extra meth max_rounds backend domains file show_stats trace =
    with_obs show_stats trace @@ fun () ->
    let graph, root, tree = resolve_instance file seed n extra in
    let spec = Gm.broadcast ~graph ~root in
    let w = G.Tree.total_weight tree in
    Printf.printf "instance: %s, %d nodes, %d edges, root %d, target tree weight %.3f\n"
      (match file with Some p -> p | None -> Printf.sprintf "seed=%d" seed)
      (G.n_nodes graph) (G.n_edges graph) root w;
    (* Run the cut method's separation oracles on a worker pool when
       --domains asks for one (answers are identical either way). *)
    let with_pool f =
      if domains <= 1 then f None
      else begin
        let pool = Par.Pool.create ~domains () in
        Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f (Some pool))
      end
    in
    let round_limit_failure converged =
      if converged then None
      else
        Some
          "cutting plane hit the round limit with violated constraints \
           outstanding; the printed subsidy may under-enforce — re-run with \
           a higher --max-rounds"
    in
    (* The dense (Sne) and sparse (Snes) instantiations share graph and
       game types but not LP result types, so each method/backend pair
       gets its own arm producing the common (subsidy, cost, label,
       failure) tuple. *)
    let subsidy, cost, label, failure =
      match (meth, backend) with
      | `Lp3, `Dense ->
          let r = Sne.broadcast spec ~root tree in
          (r.Sne.subsidy, r.Sne.cost, "LP (3)", None)
      | `Lp3, `Sparse ->
          let r = Snes.broadcast spec ~root tree in
          (r.Snes.subsidy, r.Snes.cost, "LP (3)", None)
      | `Lp2, `Dense ->
          let state = Gm.Broadcast.state_of_tree spec ~root tree in
          let r = Sne.poly spec ~state in
          (r.Sne.subsidy, r.Sne.cost, "LP (2)", None)
      | `Lp2, `Sparse ->
          let state = Gm.Broadcast.state_of_tree spec ~root tree in
          let r = Snes.poly spec ~state in
          (r.Snes.subsidy, r.Snes.cost, "LP (2)", None)
      | `Cut, `Dense ->
          let state = Gm.Broadcast.state_of_tree spec ~root tree in
          let r, stats =
            with_pool (fun pool -> Sne.cutting_plane ?pool ~max_rounds spec ~state)
          in
          Printf.printf "cutting plane: %d rounds, %d constraints generated, %d pivots\n"
            stats.Sne.rounds stats.Sne.generated stats.Sne.pivots;
          ( r.Sne.subsidy,
            r.Sne.cost,
            "LP (1) via cutting planes",
            round_limit_failure stats.Sne.converged )
      | `Cut, `Sparse ->
          let state = Gm.Broadcast.state_of_tree spec ~root tree in
          let r, stats =
            with_pool (fun pool -> Snes.cutting_plane ?pool ~max_rounds spec ~state)
          in
          Printf.printf "cutting plane: %d rounds, %d constraints generated, %d pivots\n"
            stats.Snes.rounds stats.Snes.generated stats.Snes.pivots;
          ( r.Snes.subsidy,
            r.Snes.cost,
            "LP (1) via cutting planes",
            round_limit_failure stats.Snes.converged )
      | `Thm6, _ ->
          let r = Enforce.subsidize_mst graph tree in
          (r.Enforce.subsidy, r.Enforce.total, "Theorem 6 construction", None)
      | `AonExact, _ ->
          let r = Aon.solve_exact spec tree in
          Printf.printf "branch-and-bound: %d nodes explored, optimal=%b\n"
            r.Aon.nodes_explored r.Aon.optimal;
          ( Aon.subsidy_of_chosen graph r.Aon.chosen,
            r.Aon.cost,
            "all-or-nothing (exact)",
            None )
      | `AonGreedy, _ ->
          let r = Aon.greedy spec tree in
          ( Aon.subsidy_of_chosen graph r.Aon.chosen,
            r.Aon.cost,
            "all-or-nothing (greedy)",
            None )
    in
    Printf.printf "%s: total subsidies %.4f (%.2f%% of the tree)\n" label cost
      (100.0 *. cost /. w);
    Array.iteri
      (fun id b ->
        if Repro_util.Floatx.gt b 0.0 then
          let u, v = G.endpoints graph id in
          Printf.printf "  edge %d (%d-%d, weight %.3f): subsidize %.4f\n" id u v
            (G.weight graph id) b)
      subsidy;
    Printf.printf "MST is an equilibrium under this plan: %b\n"
      (Gm.Broadcast.is_tree_equilibrium ~subsidy spec tree);
    match failure with None -> Ok () | Some msg -> Error msg
  in
  Cmd.v (Cmd.info "solve" ~doc:"Enforce the target tree of a broadcast instance.")
    Term.(const run $ seed_arg $ nodes_arg $ extra_arg $ method_arg $ max_rounds_arg
          $ backend_arg $ domains_arg $ file_arg $ stats_arg $ trace_arg)

(* ---------------------------------------------------------------- *)
(* landscape                                                         *)
(* ---------------------------------------------------------------- *)

let landscape_cmd =
  let run seed n extra show_stats trace =
    with_obs show_stats trace @@ fun () ->
    if n > 12 then failwith "landscape enumerates all spanning trees; use n <= 12";
    let inst = make_instance seed n extra in
    let graph = inst.Instances.graph and root = inst.Instances.root in
    let l = Gm.Exact.equilibrium_landscape ~graph ~root in
    Printf.printf "spanning trees: %d, of which equilibria: %d\n" l.Gm.Exact.n_trees
      l.Gm.Exact.n_equilibria;
    Printf.printf "MST weight: %.3f\n" l.Gm.Exact.mst_weight;
    (match l.Gm.Exact.best_equilibrium with
    | Some (w, ids) ->
        Printf.printf "best equilibrium: weight %.3f, edges %s\n" w
          (String.concat "," (List.map string_of_int ids))
    | None -> print_endline "no tree equilibrium (float tolerance artifact)");
    (match l.Gm.Exact.worst_equilibrium with
    | Some (w, _) -> Printf.printf "worst equilibrium: weight %.3f\n" w
    | None -> ());
    (match Gm.Exact.price_of_stability ~graph ~root with
    | Some pos -> Printf.printf "price of stability: %.4f (H_n bound: %.4f)\n" pos
        (Repro_util.Harmonic.h (n - 1))
    | None -> ());
    Ok ()
  in
  Cmd.v (Cmd.info "landscape" ~doc:"Exact equilibrium landscape of a small instance.")
    Term.(const run $ seed_arg $ nodes_arg $ extra_arg $ stats_arg $ trace_arg)

(* ---------------------------------------------------------------- *)
(* lower-bound                                                       *)
(* ---------------------------------------------------------------- *)

let lower_bound_cmd =
  let family_arg =
    Arg.(value & opt (enum [ ("cycle", `Cycle); ("aon-path", `AonPath) ]) `Cycle
         & info [ "family" ] ~docv:"FAMILY" ~doc:"cycle (Thm 11) or aon-path (Thm 21).")
  in
  let max_n_arg =
    Arg.(value & opt int 128 & info [ "max-n" ] ~docv:"N" ~doc:"Largest instance size.")
  in
  let run family max_n show_stats trace =
    with_obs show_stats trace @@ fun () ->
    (match family with
    | `Cycle ->
        let t = Table.create ~title:"Theorem 11: unit cycle" ~header:[ "n"; "ratio"; "1/e" ] in
        let n = ref 8 in
        while !n <= max_n do
          let inst = Lb.cycle_instance ~n:!n in
          let r = Sne.broadcast (Lb.spec inst) ~root:inst.Lb.root (Lb.tree inst) in
          Table.add_row t
            [ Table.cell_i !n; Table.cell_f (r.Sne.cost /. float_of_int !n);
              Table.cell_f (1.0 /. Stdlib.exp 1.0) ];
          n := !n * 2
        done;
        Table.print t
    | `AonPath ->
        let t = Table.create ~title:"Theorem 21: shortcut path (exact AoN)"
            ~header:[ "n"; "ratio"; "e/(2e-1)" ] in
        let bound = Stdlib.exp 1.0 /. ((2.0 *. Stdlib.exp 1.0) -. 1.0) in
        let n = ref 6 in
        while !n <= min max_n 21 do
          let inst = Lb.aon_path_instance ~n:!n ~x:(Repro_core.Lower_bounds.theorem21_x ~n:!n) in
          let r = Aon.solve_exact (Lb.spec inst) (Lb.tree inst) in
          Table.add_row t
            [ Table.cell_i !n;
              Table.cell_f (r.Aon.cost /. G.Tree.total_weight (Lb.tree inst));
              Table.cell_f bound ];
          n := !n + 3
        done;
        Table.print t);
    Ok ()
  in
  Cmd.v (Cmd.info "lower-bound" ~doc:"Sweep one of the paper's lower-bound families.")
    Term.(const run $ family_arg $ max_n_arg $ stats_arg $ trace_arg)

(* ---------------------------------------------------------------- *)
(* reduction                                                         *)
(* ---------------------------------------------------------------- *)

let reduction_cmd =
  let which_arg =
    Arg.(value & opt (enum [ ("bypass", `Bypass); ("binpacking", `Bp); ("indepset", `Is); ("sat", `Sat) ]) `Bypass
         & info [ "which" ] ~docv:"RED" ~doc:"bypass, binpacking, indepset or sat.")
  in
  let run which show_stats trace =
    with_obs show_stats trace @@ fun () ->
    (match which with
    | `Bypass ->
        let module B = Repro_reductions.Bypass_gadget.Rat in
        for beta = 1 to 8 do
          let g = B.build ~capacity:4 ~beta in
          Printf.printf "capacity 4, beta %d: connector deviates = %b\n" beta
            (B.connector_deviates g)
        done
    | `Bp ->
        let module R = Repro_reductions.Binpacking_to_snd.Rat in
        let module BP = Repro_problems.Binpacking in
        let inst = BP.create ~sizes:[| 4; 4; 2; 2; 2; 2 |] ~bins:2 ~capacity:8 in
        let t = R.build inst in
        Printf.printf "packable=%b, equilibrium MST exists=%b, correspondence=%b\n"
          (BP.solve inst <> None)
          (R.find_equilibrium_mst t <> None)
          (R.correspondence_holds t)
    | `Is ->
        let module R = Repro_reductions.Indepset_to_pos.Rat in
        let module IS = Repro_problems.Indepset in
        let module Q = Repro_field.Rational in
        List.iter
          (fun (name, h) ->
            let c = R.build h ~delta:(Q.of_ints 1 12) in
            let w, _, mis = R.best_equilibrium c in
            Printf.printf "%s: alpha=%d best equilibrium weight=%s\n" name
              (List.length mis) (Q.to_string w))
          IS.named
    | `Sat ->
        let module R = Repro_reductions.Sat_to_aon.Rat in
        let module Sat = Repro_problems.Sat in
        let f = Sat.create ~n_vars:5 [ [ 1; 2; 3 ]; [ -1; 4; 5 ] ] in
        let t = R.build f in
        let s = R.stats t in
        Printf.printf "gadget graph: %d nodes, %d edges; correspondence over all assignments: %b\n"
          s.R.nodes s.R.edges (R.verify_all_assignments t));
    Ok ()
  in
  Cmd.v (Cmd.info "reduction" ~doc:"Build and verify one of the hardness reductions.")
    Term.(const run $ which_arg $ stats_arg $ trace_arg)

(* ---------------------------------------------------------------- *)
(* pareto                                                            *)
(* ---------------------------------------------------------------- *)

let engine_arg =
  Arg.(value & opt (enum [ ("search", `Search); ("brute", `Brute) ]) `Search
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"search (branch-and-bound, the default) or brute (exhaustive \
                 enumeration — the reference oracle).")

let pareto_cmd =
  let run seed n extra file engine show_stats trace =
    with_obs show_stats trace @@ fun () ->
    let graph, root, _ = resolve_instance file seed n extra in
    if G.n_nodes graph > 12 then
      failwith "pareto enumerates all spanning trees; use n <= 12";
    let module Snd = Repro_core.Snd.Float in
    let frontier =
      match engine with
      | `Search -> Snd.pareto_frontier ~graph ~root
      | `Brute -> Snd.pareto_frontier_brute ~graph ~root
    in
    let mst_w = G.total_weight graph (Option.get (G.mst_kruskal graph)) in
    let t =
      Table.create ~title:"budget menu (Pareto frontier)"
        ~header:[ "required budget"; "design weight"; "overhead vs MST" ]
    in
    List.iter
      (fun d ->
        Table.add_row t
          [
            Table.cell_f d.Snd.subsidy_cost;
            Table.cell_f d.Snd.weight;
            Printf.sprintf "+%.1f%%" (100.0 *. ((d.Snd.weight /. mst_w) -. 1.0));
          ])
      frontier;
    Table.print t;
    Printf.printf "Theorem 6 budget wgt(MST)/e = %.3f always buys the MST.\n"
      (mst_w /. Stdlib.exp 1.0);
    Ok ()
  in
  Cmd.v
    (Cmd.info "pareto" ~doc:"The budget/weight Pareto frontier of a small instance.")
    Term.(const run $ seed_arg $ nodes_arg $ extra_arg $ file_arg $ engine_arg
          $ stats_arg $ trace_arg)

(* ---------------------------------------------------------------- *)
(* design                                                            *)
(* ---------------------------------------------------------------- *)

let design_cmd =
  let budget_arg =
    Arg.(required & opt (some float) None
         & info [ "budget" ] ~docv:"B" ~doc:"Subsidy budget the design must fit.")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Worker domains for parallel exploration (1 = sequential).")
  in
  let no_lb_arg =
    Arg.(value & flag
         & info [ "no-lb" ] ~doc:"Disable enforcement lower-bound pruning (debugging).")
  in
  let run seed n extra file budget engine domains no_lb show_stats trace =
    with_obs show_stats trace @@ fun () ->
    let graph, root, _ = resolve_instance file seed n extra in
    if G.n_nodes graph > 16 then failwith "design searches spanning trees; use n <= 16";
    let module Search = Repro_core.Snd_search.Float in
    let module Snd = Repro_core.Snd.Float in
    Printf.printf "instance: %s, %d nodes, %d edges, root %d, budget %.3f\n"
      (match file with Some p -> p | None -> Printf.sprintf "seed=%d" seed)
      (G.n_nodes graph) (G.n_edges graph) root budget;
    let describe = function
      | None -> Error "no design within budget"
      | Some (edges, w, cost) ->
          Printf.printf "design: weight %.3f, enforcement cost %.4f, edges %s\n" w cost
            (String.concat "," (List.map string_of_int edges));
          Ok ()
    in
    match engine with
    | `Brute ->
        describe
          (Option.map
             (fun (d : Snd.design) -> (d.Snd.tree_edges, d.Snd.weight, d.Snd.subsidy_cost))
             (Snd.exact_small_brute ~graph ~root ~budget))
    | `Search ->
        let config =
          { Search.default_config with domains = max 1 domains; use_lb = not no_lb }
        in
        let d, s = Search.exact_small ~config ~graph ~root ~budget () in
        let r =
          describe
            (Option.map
               (fun (d : Search.design) ->
                 (d.Search.tree_edges, d.Search.weight, d.Search.subsidy_cost))
               d)
        in
        Printf.printf
          "search: %d trees seen, %d priced, %d lb-pruned, %d incumbent-skips, %d cache \
           hits, %d nodes expanded\n"
          s.Search.trees_seen s.Search.trees_priced s.Search.lb_pruned
          s.Search.incumbent_skips s.Search.cache_hits s.Search.nodes_expanded;
        r
  in
  Cmd.v
    (Cmd.info "design"
       ~doc:"Exact stable network design: the lightest tree enforceable within a budget.")
    Term.(const run $ seed_arg $ nodes_arg $ extra_arg $ file_arg $ budget_arg
          $ engine_arg $ domains_arg $ no_lb_arg $ stats_arg $ trace_arg)

(* ---------------------------------------------------------------- *)
(* dynamics                                                          *)
(* ---------------------------------------------------------------- *)

let dynamics_cmd =
  let run seed n extra show_stats trace =
    with_obs show_stats trace @@ fun () ->
    let inst = make_instance seed n extra in
    let spec = Instances.spec inst in
    let tree = Instances.mst_tree inst in
    let start = Gm.Broadcast.state_of_tree spec ~root:inst.Instances.root tree in
    Printf.printf "starting from the MST (weight %.3f, potential %.3f)\n"
      (G.Tree.total_weight tree) (Gm.potential spec start);
    let out = Gm.Dynamics.best_response_dynamics spec start in
    Printf.printf "converged=%b after %d rounds (%d moves)\n" out.Gm.Dynamics.converged
      out.Gm.Dynamics.rounds out.Gm.Dynamics.moves;
    Printf.printf "final social cost %.3f, potential %.3f, equilibrium=%b\n"
      (Gm.social_cost spec out.Gm.Dynamics.state)
      (Gm.potential spec out.Gm.Dynamics.state)
      (Gm.is_equilibrium spec out.Gm.Dynamics.state);
    Ok ()
  in
  Cmd.v (Cmd.info "dynamics" ~doc:"Best-response dynamics from the MST.")
    Term.(const run $ seed_arg $ nodes_arg $ extra_arg $ stats_arg $ trace_arg)

(* ---------------------------------------------------------------- *)
(* serve                                                             *)
(* ---------------------------------------------------------------- *)

let serve_cmd =
  let module Service = Repro_service.Service in
  let module Wire = Repro_service.Service_wire in
  let stdio_arg =
    Arg.(value & flag
         & info [ "stdio" ]
             ~doc:"Speak the wire protocol over stdin/stdout (the only \
                   transport; see DESIGN.md for the format).")
  in
  let workers_arg =
    Arg.(value & opt int 1
         & info [ "workers" ] ~docv:"W" ~doc:"Solver parallelism (1 = no extra domains).")
  in
  let queue_limit_arg =
    Arg.(value & opt int 256
         & info [ "queue-limit" ] ~docv:"Q"
             ~doc:"Backpressure high-water mark: pending requests beyond this \
                   are answered with an overloaded error immediately.")
  in
  let cache_arg =
    Arg.(value & opt int 512
         & info [ "cache" ] ~docv:"C"
             ~doc:"Response cache capacity in outcomes (0 disables caching).")
  in
  let sessions_arg =
    Arg.(value & opt int 64
         & info [ "sessions" ] ~docv:"S"
             ~doc:"Incremental session table capacity per shard; least recently \
                   used handles are evicted and later requests naming them get \
                   a structured unknown_session error.")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Independent service shards (queue + dispatcher domain + \
                   cache + session table each); requests are routed by the \
                   canonical instance digest, so an instance and its sessions \
                   always land on the same shard.")
  in
  let wire_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("binary", `Binary) ]) `Text
         & info [ "wire" ] ~docv:"FORMAT"
             ~doc:"Wire framing: $(b,text) (newline-delimited key=value \
                   requests, one-line JSON responses) or $(b,binary) \
                   (length-prefixed frames: compact binary requests in, \
                   JSON-payload frames out).")
  in
  (* Best-effort id echo for lines that fail wire parsing, so callers can
     still correlate the error response. *)
  let sniff_id line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.find_map (fun tok ->
           if String.length tok > 3 && String.sub tok 0 3 = "id=" then
             let raw = String.sub tok 3 (String.length tok - 3) in
             Some (match Wire.decode raw with Ok s -> s | Error _ -> raw)
           else None)
    |> Option.value ~default:""
  in
  let run stdio wire shards workers queue_limit cache sessions show_stats trace =
    with_obs show_stats trace @@ fun () ->
    if not stdio then Error "serve: pass --stdio (the only transport)"
    else if shards < 1 then Error "serve: --shards must be >= 1"
    else begin
      let wire_errors = Repro_obs.Obs.counter "service.wire_parse_errors" in
      Service.with_service ~shards ~workers ~queue_limit ~cache ~sessions (fun svc ->
          (* Responses are emitted in request order: parse errors complete
             instantly, solver responses as their tickets resolve. Between
             input reads we drain whatever already finished, so a slow
             request pipelines behind fast ones without reordering.
             Progress events of streaming requests bypass the order queue
             (they are emitted the moment a worker fires them), so every
             stdout write goes through [emit_raw] under [out_mu]. *)
          let queue : [ `Done of Service.response | `Wait of Service.ticket ] Queue.t =
            Queue.create ()
          in
          let out_mu = Mutex.create () in
          let emit_raw payload =
            Mutex.lock out_mu;
            (match wire with
            | `Text ->
                print_string payload;
                print_newline ()
            | `Binary -> Wire.Binary.write_frame stdout payload);
            flush stdout;
            Mutex.unlock out_mu
          in
          let emit r = emit_raw (Wire.response_to_string r) in
          let parse_error_response ~id msg =
            Repro_obs.Obs.incr wire_errors;
            {
              Service.id;
              result = Error (Service.Parse_error msg);
              cache_hit = false;
              elapsed_ms = 0.0;
            }
          in
          let submit req =
            if req.Service.stream then
              let id = req.Service.id in
              Service.submit svc req
                ~on_progress:(fun p -> emit_raw (Wire.progress_to_string ~id p))
            else Service.submit svc req
          in
          let rec drain ~block =
            match Queue.peek_opt queue with
            | None -> ()
            | Some (`Done r) ->
                ignore (Queue.pop queue);
                emit r;
                drain ~block
            | Some (`Wait tk) ->
                if block then begin
                  ignore (Queue.pop queue);
                  emit (Service.await svc tk);
                  drain ~block
                end
                else (
                  match Service.poll_response svc tk with
                  | Some r ->
                      ignore (Queue.pop queue);
                      emit r;
                      drain ~block
                  | None -> ())
          in
          (* Read until end-of-input. EOF is the normal way a client hangs
             up: both loops fall through to the blocking drain below, so
             every accepted request is still answered and the process
             exits 0 — pinned by the cram tests. *)
          (match wire with
          | `Text -> (
              try
                while true do
                  let line = input_line stdin in
                  let t = String.trim line in
                  if t <> "" && t.[0] <> '#' then begin
                    (match Wire.parse_request t with
                    | Ok req -> Queue.add (`Wait (submit req)) queue
                    | Error msg ->
                        Queue.add
                          (`Done (parse_error_response ~id:(sniff_id t) msg))
                          queue);
                    drain ~block:false
                  end
                done
              with End_of_file -> ())
          | `Binary ->
              let reading = ref true in
              while !reading do
                (match Wire.Binary.read_frame stdin with
                | Ok None -> reading := false
                | Ok (Some payload) -> (
                    match Wire.Binary.decode_request payload with
                    | Ok req -> Queue.add (`Wait (submit req)) queue
                    | Error msg ->
                        Queue.add (`Done (parse_error_response ~id:"" msg)) queue)
                | Error msg ->
                    (* A framing error (truncated prefix/payload, oversized
                       length) leaves no way to find the next frame
                       boundary: answer it and stop reading — in-flight
                       requests still drain below. *)
                    Queue.add (`Done (parse_error_response ~id:"" msg)) queue;
                    reading := false);
                drain ~block:false
              done);
          drain ~block:true);
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve solver requests over stdio: wire requests in (newline-\
             delimited text or length-prefixed binary frames, see --wire), \
             one-line JSON responses out, in request order; streaming \
             requests additionally emit progress events as they solve. \
             Structured error responses (parse errors, expired deadlines, \
             overload) are normal operation, not process failures.")
    Term.(const run $ stdio_arg $ wire_arg $ shards_arg $ workers_arg
          $ queue_limit_arg $ cache_arg $ sessions_arg $ stats_arg $ trace_arg)

let () =
  let info =
    Cmd.info "sne_cli" ~version:"1.0"
      ~doc:"Subsidies for network design games (SPAA 2012 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ solve_cmd; landscape_cmd; lower_bound_cmd; reduction_cmd; pareto_cmd;
            design_cmd; dynamics_cmd; serve_cmd ]))
