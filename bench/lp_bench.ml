(* LP backend benchmarks: unboxed float kernel vs. the functorized float
   simplex, and warm-started vs. cold-restarted cutting-plane SNE.

   Writes a machine-readable BENCH_lp.json (see Repro_util.Bench_json) so
   CI and later PRs have a perf trajectory to compare against.

     dune exec bench/lp_bench.exe                 (full sweep)
     dune exec bench/lp_bench.exe -- --quick      (CI-sized)
     dune exec bench/lp_bench.exe -- --json out.json

   The two headline numbers (printed and recorded under "summary"):
   - kernel speedup on the n=64 broadcast SNE LP (target: >= 3x);
   - total simplex pivots, warm vs cold, across the cutting-plane seeds
     (warm must be strictly fewer). *)

module Gm = Repro_game.Game.Float_game
module G = Gm.G
module Instances = Repro_core.Instances
module Json = Repro_util.Bench_json
module Fx = Repro_util.Floatx

(* The functorized float path (cold oracle) vs the unboxed kernel. *)
module SneFunctor = Repro_core.Sne_lp.Make (Repro_field.Field.Float_field)
module SneFast = Repro_core.Sne_lp.Float
module SneSparse = Repro_core.Sne_lp.Float_sparse
module Parallel = Repro_parallel.Parallel

(* --smoke: the CI gate. Smallest sizes, but still exercises every backend
   pair and hard-fails on any disagreement; speed targets only warn. *)
let smoke = Array.exists (( = ) "--smoke") Sys.argv
let quick = smoke || Array.exists (( = ) "--quick") Sys.argv

let json_path =
  let path = ref "BENCH_lp.json" in
  Array.iteri
    (fun i a -> if a = "--json" && i + 1 < Array.length Sys.argv then path := Sys.argv.(i + 1))
    Sys.argv;
  !path

(* Median wall-clock seconds over [reps] runs (after one warm-up run). *)
let time_median ?(reps = 5) f =
  ignore (f ());
  let samples =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (reps / 2)

(* Random broadcast instances whose MST is NOT already an equilibrium, so
   the SNE LP is non-trivial and the cutting plane generates cuts. *)
let unstable_instance ?(dist = Instances.Integer 9) ~n ~extra seed =
  let rec go s guard =
    if guard = 0 then failwith "lp_bench: no unstable instance found";
    let inst = Instances.random ~dist ~n ~extra ~seed:s () in
    let spec = Instances.spec inst in
    let tree = Instances.mst_tree inst in
    if Gm.Broadcast.is_tree_equilibrium spec tree then go (s + 1000) (guard - 1)
    else inst
  in
  go seed 200

(* ------------------------------------------------------------------ *)
(* Functor vs. unboxed kernel on the broadcast SNE LP (3)               *)
(* ------------------------------------------------------------------ *)

let kernel_rows = ref []

let bench_kernel () =
  Printf.printf "\n%-6s %-6s %12s %12s %9s\n" "n" "m" "functor" "unboxed" "speedup";
  let sizes = if quick then [ 16; 32; 64 ] else [ 16; 32; 48; 64; 96 ] in
  List.iter
    (fun n ->
      let inst = unstable_instance ~n ~extra:n (100 + n) in
      let spec = Instances.spec inst in
      let root = inst.Instances.root in
      let tree = Instances.mst_tree inst in
      let m = G.n_edges inst.Instances.graph in
      let functor_s = time_median (fun () -> SneFunctor.broadcast spec ~root tree) in
      let unboxed_s = time_median (fun () -> SneFast.broadcast spec ~root tree) in
      (* The two backends must agree on the optimum, or the speedup is
         meaningless. *)
      let cf = (SneFunctor.broadcast spec ~root tree).SneFunctor.cost in
      let cu = (SneFast.broadcast spec ~root tree).SneFast.cost in
      if not (Fx.approx_eq ~eps:1e-5 cf cu) then
        failwith (Printf.sprintf "lp_bench: backends disagree at n=%d (%g vs %g)" n cf cu);
      let speedup = functor_s /. unboxed_s in
      Printf.printf "%-6d %-6d %10.3fms %10.3fms %8.2fx\n" n m (1e3 *. functor_s)
        (1e3 *. unboxed_s) speedup;
      kernel_rows :=
        Json.Obj
          [
            ("n", Json.Int n);
            ("edges", Json.Int m);
            ("functor_ms", Json.Float (1e3 *. functor_s));
            ("unboxed_ms", Json.Float (1e3 *. unboxed_s));
            ("speedup", Json.Float speedup);
            ("cost", Json.Float cu);
          ]
        :: !kernel_rows)
    sizes;
  List.rev !kernel_rows

(* ------------------------------------------------------------------ *)
(* Warm-started vs. cold-restarted cutting plane (LP (1))               *)
(* ------------------------------------------------------------------ *)

(* Enforcing the MST is too easy a target — one round, a pivot or two.
   Enforcing an anti-MST (maximum spanning tree, built by Kruskal on
   inverted weights) puts the target far from equilibrium, so the loop
   runs several rounds and accumulates dozens of cuts: exactly the regime
   where warm starts pay. *)
let anti_mst_tree inst =
  let g = inst.Instances.graph in
  let maxw = G.fold_edges g ~init:0.0 ~f:(fun a e -> Float.max a e.G.weight) in
  let inverted = G.with_weights g (fun e -> maxw -. e.G.weight +. 1.0) in
  match G.mst_kruskal inverted with
  | None -> failwith "lp_bench: disconnected instance"
  | Some ids -> G.Tree.of_edge_ids g ~root:inst.Instances.root ids

let bench_cutting_plane () =
  Printf.printf "\n%-6s %-4s %-4s %10s %10s %12s %12s %7s\n" "seed" "n" "rnd" "warm piv"
    "cold piv" "warm" "cold" "agree";
  let seeds = if quick then [ 1; 2; 3; 4 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let rows =
    List.map
      (fun seed ->
        let n = 12 + (4 * (seed mod 4)) in
        let inst =
          Instances.random ~dist:(Instances.Heavy_tailed 10.0) ~n ~extra:n ~seed ()
        in
        let spec = Instances.spec inst in
        let tree = anti_mst_tree inst in
        let state = Gm.Broadcast.state_of_tree spec ~root:inst.Instances.root tree in
        let (rw, sw) = SneFast.cutting_plane ~warm:true spec ~state in
        let (rc, sc) = SneFast.cutting_plane ~warm:false spec ~state in
        let warm_s = time_median ~reps:3 (fun () -> SneFast.cutting_plane ~warm:true spec ~state) in
        let cold_s = time_median ~reps:3 (fun () -> SneFast.cutting_plane ~warm:false spec ~state) in
        let agree =
          sw.SneFast.converged && sc.SneFast.converged
          && Fx.approx_eq ~eps:1e-5 rw.SneFast.cost rc.SneFast.cost
        in
        Printf.printf "%-6d %-4d %-4d %10d %10d %10.3fms %10.3fms %7b\n" seed n
          sw.SneFast.rounds sw.SneFast.pivots sc.SneFast.pivots (1e3 *. warm_s)
          (1e3 *. cold_s) agree;
        if not agree then failwith (Printf.sprintf "lp_bench: warm/cold disagree at seed %d" seed);
        ( sw.SneFast.pivots,
          sc.SneFast.pivots,
          Json.Obj
            [
              ("seed", Json.Int seed);
              ("n", Json.Int n);
              ("rounds", Json.Int sw.SneFast.rounds);
              ("generated", Json.Int sw.SneFast.generated);
              ("warm_pivots", Json.Int sw.SneFast.pivots);
              ("cold_pivots", Json.Int sc.SneFast.pivots);
              ("warm_ms", Json.Float (1e3 *. warm_s));
              ("cold_ms", Json.Float (1e3 *. cold_s));
              ("cost", Json.Float rw.SneFast.cost);
            ] ))
      seeds
  in
  let warm_total = List.fold_left (fun a (w, _, _) -> a + w) 0 rows in
  let cold_total = List.fold_left (fun a (_, c, _) -> a + c) 0 rows in
  (warm_total, cold_total, List.map (fun (_, _, j) -> j) rows)

(* ------------------------------------------------------------------ *)
(* Sparse revised kernel vs dense, and serial vs parallel separation    *)
(* ------------------------------------------------------------------ *)

module Obs = Repro_obs.Obs

(* Basis refactorization count for one sparse cutting-plane run, read
   off the lp.sparse.* observability counters. *)
let sparse_refactors f =
  Obs.reset ();
  Obs.with_enabled true (fun () -> ignore (f ()));
  let r = Obs.value (Obs.counter "lp.sparse.refactors") in
  Obs.reset ();
  r

let sparse_instance n =
  let inst =
    Instances.random ~dist:(Instances.Heavy_tailed 10.0) ~n ~extra:n ~seed:(300 + n) ()
  in
  let spec = Instances.spec inst in
  let tree = anti_mst_tree inst in
  let state = Gm.Broadcast.state_of_tree spec ~root:inst.Instances.root tree in
  (inst, spec, state)

let bench_sparse () =
  Printf.printf "\ndense vs sparse cutting plane (warm, anti-MST targets)\n";
  Printf.printf "%-6s %-6s %12s %12s %8s %7s %7s %6s %6s\n" "n" "m" "dense" "sparse"
    "speedup" "d-piv" "s-piv" "refac" "agree";
  let sizes = if smoke then [ 12; 16 ] else if quick then [ 24; 48 ] else [ 48; 96; 128 ] in
  let rows =
    List.map
      (fun n ->
        let inst, spec, state = sparse_instance n in
        let m = G.n_edges inst.Instances.graph in
        let rd, sd = SneFast.cutting_plane ~warm:true spec ~state in
        let rs, ss = SneSparse.cutting_plane ~warm:true spec ~state in
        let agree =
          sd.SneFast.converged && ss.SneSparse.converged
          && Fx.approx_eq ~eps:1e-5 rd.SneFast.cost rs.SneSparse.cost
        in
        if not agree then
          failwith
            (Printf.sprintf "lp_bench: dense/sparse disagree at n=%d (%g vs %g)" n
               rd.SneFast.cost rs.SneSparse.cost);
        let dense_s =
          time_median ~reps:3 (fun () -> SneFast.cutting_plane ~warm:true spec ~state)
        in
        let sparse_s =
          time_median ~reps:3 (fun () -> SneSparse.cutting_plane ~warm:true spec ~state)
        in
        let refactors =
          sparse_refactors (fun () -> SneSparse.cutting_plane ~warm:true spec ~state)
        in
        let speedup = dense_s /. sparse_s in
        Printf.printf "%-6d %-6d %10.3fms %10.3fms %7.2fx %7d %7d %6d %6b\n" n m
          (1e3 *. dense_s) (1e3 *. sparse_s) speedup sd.SneFast.pivots ss.SneSparse.pivots
          refactors agree;
        ( n,
          speedup,
          Json.Obj
            [
              ("n", Json.Int n);
              ("edges", Json.Int m);
              ("dense_ms", Json.Float (1e3 *. dense_s));
              ("sparse_ms", Json.Float (1e3 *. sparse_s));
              ("speedup", Json.Float speedup);
              ("dense_pivots", Json.Int sd.SneFast.pivots);
              ("sparse_pivots", Json.Int ss.SneSparse.pivots);
              ("sparse_refactors", Json.Int refactors);
              ("rounds", Json.Int ss.SneSparse.rounds);
              ("cost", Json.Float rs.SneSparse.cost);
              ("agree", Json.Bool agree);
            ] ))
      sizes
  in
  (* Serial vs pooled separation on the largest instance. On a single-core
     box the pool adds overhead instead of speed; that is reported honestly
     (the "cores" field) and only warned about, never failed — correctness
     (identical answers with and without the pool) is the hard gate. *)
  let n = List.fold_left max 0 sizes in
  let _, spec, state = sparse_instance n in
  let pool = Parallel.Pool.create ~domains:4 () in
  let sep =
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () ->
        let rser, sser = SneSparse.cutting_plane ~warm:true spec ~state in
        let rpar, spar = SneSparse.cutting_plane ~warm:true ~pool spec ~state in
        let agree =
          sser.SneSparse.converged && spar.SneSparse.converged
          && Fx.approx_eq ~eps:1e-5 rser.SneSparse.cost rpar.SneSparse.cost
        in
        if not agree then
          failwith
            (Printf.sprintf "lp_bench: serial/parallel separation disagree at n=%d (%g vs %g)"
               n rser.SneSparse.cost rpar.SneSparse.cost);
        let serial_s =
          time_median ~reps:3 (fun () -> SneSparse.cutting_plane ~warm:true spec ~state)
        in
        let par_s =
          time_median ~reps:3 (fun () -> SneSparse.cutting_plane ~warm:true ~pool spec ~state)
        in
        let speedup = serial_s /. par_s in
        Printf.printf
          "separation (n=%d, 4 domains, %d cores): serial %.3fms, parallel %.3fms, %.2fx\n" n
          (Domain.recommended_domain_count ()) (1e3 *. serial_s) (1e3 *. par_s) speedup;
        ( speedup,
          Json.Obj
            [
              ("n", Json.Int n);
              ("domains", Json.Int 4);
              ("cores", Json.Int (Domain.recommended_domain_count ()));
              ("serial_ms", Json.Float (1e3 *. serial_s));
              ("parallel_ms", Json.Float (1e3 *. par_s));
              ("speedup", Json.Float speedup);
              ("agree", Json.Bool agree);
            ] ))
  in
  (rows, sep)

(* ------------------------------------------------------------------ *)
(* The LU basis engine in the large cutting-plane regime                *)
(* ------------------------------------------------------------------ *)

type lu_snap = {
  s_pivots : int;
  s_refactors : int;
  s_updates : int;  (** FT ops appended (lp.sparse.ft_updates) *)
  s_fill : float;  (** basis-representation nonzeros at last factor/update *)
  s_allocs : float;  (** amortized Gc minor words per pivot *)
  s_rebuilds : int;  (** warm-stall cold rebuilds (fallback chain, level 1) *)
  s_fallbacks : int;  (** dense delegations (fallback chain, level 2) *)
}

(* Run [f] once with observability on and a clean registry; return its
   result, the sparse-kernel counters it accumulated, and its wall
   clock. *)
let instrumented f =
  Obs.reset ();
  let t0 = Unix.gettimeofday () in
  let r = Obs.with_enabled true f in
  let elapsed = Unix.gettimeofday () -. t0 in
  let v name = Obs.value (Obs.counter name) in
  let g name = Obs.gauge_value (Obs.gauge name) in
  let snap =
    {
      s_pivots = v "lp.sparse.pivots";
      s_refactors = v "lp.sparse.refactors";
      s_updates = v "lp.sparse.ft_updates";
      s_fill = g "lp.sparse.fill_nnz";
      s_allocs = g "lp.sparse.allocs_per_pivot";
      s_rebuilds = v "lp.sparse.rebuilds";
      s_fallbacks = v "lp.sparse.fallbacks";
    }
  in
  Obs.reset ();
  (r, snap, elapsed)

(* Scaling probe (`--lu-probe <n>`): a handful of capped rounds at one
   size with per-round counter dumps and span totals, to see where
   large-n wall clock goes without waiting out a full converged run. *)
let lu_probe n =
  let _, spec, state = sparse_instance n in
  Obs.reset ();
  Obs.with_enabled true (fun () ->
      let rounds_seen = ref 0 in
      let poll () =
        incr rounds_seen;
        let v name = Obs.value (Obs.counter name) in
        Printf.eprintf
          "  (probe n=%d: round %d  pivots=%d refactors=%d updates=%d \
           rebuilds=%d fallbacks=%d cuts=%d)\n%!"
          n !rounds_seen (v "lp.sparse.pivots") (v "lp.sparse.refactors")
          (v "lp.sparse.ft_updates") (v "lp.sparse.rebuilds")
          (v "lp.sparse.fallbacks") (v "sne.cuts_generated")
      in
      let t0 = Unix.gettimeofday () in
      let _, s =
        SneSparse.cutting_plane ~warm:true ~max_rounds:6 ~poll spec ~state
      in
      Printf.printf "probe n=%d: %.1fs rounds=%d generated=%d pivots=%d\n"
        n (Unix.gettimeofday () -. t0) s.SneSparse.rounds s.SneSparse.generated
        s.SneSparse.pivots;
      print_endline (Json.to_string (Obs.stats_json ())))

(* Each run's cost is checked against an independent oracle: the LP (3)
   broadcast optimum on the same tree, solved directly by the dense
   kernel instead of by cutting planes. A disagreement, an unenforced
   target or a non-converged run is fatal; the deterministic counts are
   gated by tools/check_bench.py. *)
let bench_lu () =
  Printf.printf "\nLU basis engine (sparse cutting plane, anti-MST targets)\n";
  Printf.printf "%-6s %-6s %11s %8s %6s %7s %6s %6s %8s %8s %14s\n" "n" "m" "lu"
    "lu-piv" "refac" "updates" "rebld" "fallbk" "fill" "allc/pv" "cost";
  let lu_sizes = if quick then [ 128; 256 ] else [ 128; 256; 512; 1024 ] in
  let rows =
    List.map
      (fun n ->
        Printf.printf "(n=%d running...)\n%!" n;
        let inst, spec, state = sparse_instance n in
        let m = G.n_edges inst.Instances.graph in
        (* Round-level progress for the minutes-long large sizes. *)
        let rounds_seen = ref 0 in
        let poll () =
          incr rounds_seen;
          if n >= 512 && !rounds_seen mod 25 = 0 then
            Printf.eprintf "  (n=%d: round %d)\n%!" n !rounds_seen
        in
        let run () =
          rounds_seen := 0;
          SneSparse.cutting_plane ~warm:true ~poll spec ~state
        in
        let (rl, sl), lu, lu_obs_s = instrumented run in
        if not sl.SneSparse.converged then
          failwith (Printf.sprintf "lp_bench: LU cutting plane did not converge at n=%d" n);
        let tree = anti_mst_tree inst in
        let lp3 = (SneFast.broadcast spec ~root:inst.Instances.root tree).SneFast.cost in
        if not (Fx.approx_eq ~eps:1e-6 rl.SneSparse.cost lp3) then
          failwith
            (Printf.sprintf "lp_bench: LU cutting plane and LP (3) disagree at n=%d (%g vs %g)"
               n rl.SneSparse.cost lp3);
        if not (Gm.Broadcast.is_tree_equilibrium ~subsidy:rl.SneSparse.subsidy spec tree) then
          failwith (Printf.sprintf "lp_bench: LU subsidy does not enforce the target at n=%d" n);
        (* A single-core n=512-1024 loop takes minutes: reuse the
           instrumented run's wall clock there (obs enabled — within its
           certified ~10% budget) instead of re-running for a median; the
           trajectory — pivots, refactors, fill — is the point. *)
        let lu_s = if n >= 512 then lu_obs_s else time_median ~reps:5 run in
        Printf.printf "%-6d %-6d %9.1fms %8d %6d %7d %6d %6d %8.0f %8.1f %14.9g\n" n m
          (1e3 *. lu_s) lu.s_pivots lu.s_refactors lu.s_updates lu.s_rebuilds
          lu.s_fallbacks lu.s_fill lu.s_allocs rl.SneSparse.cost;
        ( n,
          Json.Obj
            [
              ("n", Json.Int n);
              ("edges", Json.Int m);
              ("rounds", Json.Int sl.SneSparse.rounds);
              ("cost", Json.Float rl.SneSparse.cost);
              ("lp3_cost", Json.Float lp3);
              ("agree", Json.Bool true);
              ("lu_ms", Json.Float (1e3 *. lu_s));
              ("lu_pivots", Json.Int lu.s_pivots);
              ("lu_refactors", Json.Int lu.s_refactors);
              ("lu_updates", Json.Int lu.s_updates);
              ("lu_fill_nnz", Json.Float lu.s_fill);
              ("allocs_per_pivot", Json.Float lu.s_allocs);
              ("lu_rebuilds", Json.Int lu.s_rebuilds);
              ("lu_fallbacks", Json.Int lu.s_fallbacks);
            ] ))
      lu_sizes
  in
  let max_n = List.fold_left (fun a (n, _) -> max a n) 0 rows in
  (List.map snd rows, max_n)

(* ------------------------------------------------------------------ *)
(* Observability: disabled-path overhead and a stats snapshot           *)
(* ------------------------------------------------------------------ *)

(* Cost of one counter bump while observability is off — the only thing
   the instrumentation adds to a pivot on the default path. *)
let disabled_incr_ns () =
  let c = Obs.counter "bench.scratch" in
  let reps = 20_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    Obs.incr c
  done;
  1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int reps

let bench_obs () =
  let n = if quick then 32 else 64 in
  let inst = unstable_instance ~n ~extra:n (100 + n) in
  let spec = Instances.spec inst in
  let root = inst.Instances.root in
  let tree = Instances.mst_tree inst in
  let off_s = time_median (fun () -> SneFast.broadcast spec ~root tree) in
  Obs.reset ();
  (* One enabled solve to count the instrumentation events a solve fires
     (pivot-loop counters dominate; spans and per-solve bumps are O(1)). *)
  Obs.with_enabled true (fun () -> ignore (SneFast.broadcast spec ~root tree));
  let v name = Obs.value (Obs.counter name) in
  let events = v "lp.pivots" + v "lp.dual_pivots" + 8 in
  let incr_ns = disabled_incr_ns () in
  let overhead_pct = float_of_int events *. incr_ns /. (off_s *. 1e9) *. 100.0 in
  Obs.reset ();
  let on_s =
    Obs.with_enabled true (fun () ->
        time_median (fun () -> SneFast.broadcast spec ~root tree))
  in
  let stats = Obs.stats_json () in
  Printf.printf
    "\nobs overhead (n=%d): %d events/solve x %.2fns disabled bump = %.4f%% of a \
     %.3fms solve; enabled/disabled wall ratio %.3f\n"
    n events incr_ns overhead_pct (1e3 *. off_s) (on_s /. off_s);
  if overhead_pct >= 2.0 then
    Printf.eprintf "WARNING: disabled-path obs overhead %.2f%% exceeds the 2%% budget\n"
      overhead_pct;
  Json.Obj
    [
      ("n", Json.Int n);
      ("events_per_solve", Json.Int events);
      ("disabled_incr_ns", Json.Float incr_ns);
      ("solve_ms_disabled", Json.Float (1e3 *. off_s));
      ("solve_ms_enabled", Json.Float (1e3 *. on_s));
      ("enabled_ratio", Json.Float (on_s /. off_s));
      ("disabled_overhead_pct", Json.Float overhead_pct);
      ("within_budget", Json.Bool (overhead_pct < 2.0));
      ("stats", stats);
    ]

let () =
  (match
     Array.to_list Sys.argv |> function
     | _ :: "--lu-probe" :: n :: _ -> Some (int_of_string n)
     | _ -> None
   with
  | Some n ->
      lu_probe n;
      exit 0
  | None -> ());
  Printf.printf "LP backend benchmarks (%s mode)\n"
    (if smoke then "smoke" else if quick then "quick" else "full");
  let kernel = bench_kernel () in
  let warm_total, cold_total, cp_rows = bench_cutting_plane () in
  let sparse_rows, (sep_speedup, sep_row) = bench_sparse () in
  let lu_rows, lu_max_n = bench_lu () in
  let obs = bench_obs () in
  let sparse_max_n = List.fold_left (fun a (n, _, _) -> max a n) 0 sparse_rows in
  let sparse_speedup_max_n =
    List.fold_left (fun acc (n, s, _) -> if n = sparse_max_n then s else acc) 0.0 sparse_rows
  in
  let n64_speedup =
    List.fold_left
      (fun acc row ->
        match row with
        | Json.Obj kvs ->
            let n = match List.assoc "n" kvs with Json.Int n -> n | _ -> 0 in
            let s =
              match List.assoc "speedup" kvs with Json.Float s -> s | _ -> 0.0
            in
            if n = 64 then s else acc
        | _ -> acc)
      0.0 kernel
  in
  Printf.printf
    "\nsummary: n=64 kernel speedup %.2fx (target >= 3x); cutting-plane pivots warm %d vs \
     cold %d; sparse/dense at n=%d %.2fx; parallel separation %.2fx; LU completes n=%d\n"
    n64_speedup warm_total cold_total sparse_max_n sparse_speedup_max_n sep_speedup lu_max_n;
  Json.write_file ~path:json_path
    (Json.Obj
       [
         ( "meta",
           Json.Obj
             [
               ("bench", Json.Str "lp_bench");
               ("mode", Json.Str (if smoke then "smoke" else if quick then "quick" else "full"));
               ("functor_backend", Json.Str SneFunctor.Lp.name);
               ("unboxed_backend", Json.Str SneFast.Lp.name);
               ("sparse_backend", Json.Str SneSparse.Lp.name);
               ("sparse_engine", Json.Str "lu-ft");
               ("cores", Json.Int (Domain.recommended_domain_count ()));
             ] );
         ("kernel", Json.List kernel);
         ("cutting_plane", Json.List cp_rows);
         ("sparse", Json.List (List.map (fun (_, _, j) -> j) sparse_rows));
         ("lu", Json.List lu_rows);
         ("separation", sep_row);
         ("obs", obs);
         ( "summary",
           Json.Obj
             [
               ("n64_speedup", Json.Float n64_speedup);
               ("warm_pivots_total", Json.Int warm_total);
               ("cold_pivots_total", Json.Int cold_total);
               ("warm_strictly_fewer", Json.Bool (warm_total < cold_total));
               ("sparse_speedup_max_n", Json.Float sparse_speedup_max_n);
               ("sparse_max_n", Json.Int sparse_max_n);
               ("separation_speedup", Json.Float sep_speedup);
               ("lu_max_n", Json.Int lu_max_n);
             ] );
       ]);
  Printf.printf "wrote %s\n" json_path;
  if n64_speedup < 3.0 then
    Printf.eprintf "WARNING: n=64 kernel speedup %.2fx below the 3x target\n" n64_speedup;
  if (not smoke) && sparse_speedup_max_n < 2.0 then
    Printf.eprintf "WARNING: sparse/dense speedup %.2fx at n=%d below the 2x target\n"
      sparse_speedup_max_n sparse_max_n;
  if sep_speedup < 1.5 then
    Printf.eprintf
      "WARNING: parallel separation speedup %.2fx below the 1.5x target (%d cores visible)\n"
      sep_speedup
      (Domain.recommended_domain_count ());
  (* Smoke mode is the CI agreement gate: sizes are too small for the pivot
     economics to be meaningful there, so only disagreement is fatal. *)
  if (not smoke) && warm_total >= cold_total then begin
    Printf.eprintf "ERROR: warm cutting plane did not save pivots (%d >= %d)\n" warm_total
      cold_total;
    exit 1
  end
