(* The cutting-plane workloads ([cut-master], [cut-separation]): LP (1)
   solved by [Sne_lp.Float_sparse.cutting_plane], warm, with the default
   engine and pricing, serially.

   Every solve runs in a forked child so that a wall cap holds even when
   the solve never comes back to a [poll] point (a master re-solve that
   stalls inside the dense delegate, for instance): at the cap the parent
   asks the child for its counters (SIGUSR1) and then kills it. The child
   times its own solve; answer checks run in the parent, outside every
   timed window.

   Traced solves split the wall into master and separation from outside
   the solver, at the [?poll] / [?on_round] hooks: master is entry to the
   first [poll] plus each [on_round] to the next [poll]; separation is
   each [poll] to [on_round] plus the last [poll] to return. Counts come
   from the [Repro_obs.Obs] registry, enabled in the child only. *)

open Common
module Instances = Repro_core.Instances
module Gm = Instances.Gm
module G = Instances.G
module Sne = Repro_core.Sne_lp.Float_sparse
module Obs = Repro_obs.Obs
module Prng = Repro_util.Prng

type case = { spec : Gm.spec; tree : G.Tree.t; state : Gm.state }

(* An instance as a recipe. The parent keeps only recipes and each forked
   child builds its own case, so every solve starts from the same small
   heap: a child that inherits a large parent heap pays a copy-on-write
   fault for every page its collector touches, and that shows up as
   solve time. *)
type entry = { family : string; seed : int; build : unit -> case }

(* The maximum spanning tree (Kruskal on inverted weights): a target far
   from equilibrium, so the loop runs several rounds and many cuts. *)
let anti_mst_tree (inst : Instances.t) =
  let g = inst.Instances.graph in
  let maxw = G.fold_edges g ~init:0.0 ~f:(fun a e -> Float.max a e.G.weight) in
  let inverted = G.with_weights g (fun e -> maxw -. e.G.weight +. 1.0) in
  match G.mst_kruskal inverted with
  | None -> failwith "perfbench: disconnected instance"
  | Some ids -> G.Tree.of_edge_ids g ~root:inst.Instances.root ids

let make_case ~anti (inst : Instances.t) =
  let spec = Instances.spec inst in
  let tree = if anti then anti_mst_tree inst else Instances.mst_tree inst in
  { spec; tree; state = Gm.Broadcast.state_of_tree spec ~root:inst.Instances.root tree }

let entry ~family ~anti ~seed instance =
  { family; seed; build = (fun () -> make_case ~anti (instance ~seed)) }

(* ------------------------------------------------------------------ *)
(* Workload definitions                                                *)
(* ------------------------------------------------------------------ *)

type config = {
  cap : float;  (** per-solve wall cap, seconds *)
  entries : entry list;
  probe : entry option;
      (** a solve known to stall when this benchmark was written, run by
          the traced pass only, as a diagnostic row outside the measured
          operations *)
  describe : string;
}

let heavy ~n ~seed = Instances.random ~dist:(Instances.Heavy_tailed 10.0) ~n ~extra:n ~seed ()

(* Seed 11 at n=256 falls from the sparse kernel into the dense
   delegate in round 3 and, on the code this benchmark was written
   against, pivots there for more than ten minutes. The measured set is
   the first 16 seeds without it; the traced pass still solves it, under
   the cap, so the fallback chain has an attributable row. *)
let stall_seed = 11

let master ~tiny =
  let n, seeds = if tiny then (32, [ 1; 2; 3 ]) else (256, List.init 17 (fun i -> i + 1)) in
  let seeds = List.filter (fun s -> tiny || s <> stall_seed) seeds in
  {
    cap = 8.0;
    entries = List.map (fun seed -> entry ~family:"heavy-anti" ~anti:true ~seed (heavy ~n)) seeds;
    probe =
      (if tiny then None
       else Some (entry ~family:"stall-probe" ~anti:true ~seed:stall_seed (heavy ~n)));
    describe =
      Printf.sprintf "heavy-tailed random n=%d extra=%d, anti-MST targets, seeds %s%s" n n
        (String.concat "," (List.map string_of_int seeds))
        (if tiny then "" else Printf.sprintf "; traced stall probe seed %d" stall_seed);
  }

let separation ~tiny =
  let n_mst, s_mst, side, s_grid, n_ring, s_ring =
    if tiny then (24, 3, 5, 1, 24, 1) else (128, 120, 17, 20, 320, 20)
  in
  let family name ~anti count instance =
    List.init count (fun i -> entry ~family:name ~anti ~seed:(i + 1) instance)
  in
  {
    cap = 8.0;
    probe = None;
    entries =
      family "heavy-mst" ~anti:false s_mst (heavy ~n:n_mst)
      @ family "grid-anti" ~anti:true s_grid (fun ~seed ->
            Instances.grid_metro ~rows:side ~cols:side ~seed ())
      @ family "ring-anti" ~anti:true s_ring (fun ~seed ->
            Instances.ring_city ~n:n_ring ~chords:(n_ring / 4) ~seed ());
    describe =
      Printf.sprintf
        "heavy-tailed random n=%d MST targets seeds 1-%d; grid_metro %dx%d anti-MST seeds \
         1-%d; ring_city n=%d chords=%d anti-MST seeds 1-%d"
        n_mst s_mst side side s_grid n_ring (n_ring / 4) s_ring;
  }

(* ------------------------------------------------------------------ *)
(* One capped solve in a forked child                                  *)
(* ------------------------------------------------------------------ *)

type counts = {
  pivots : int;  (** sparse kernel pivots *)
  refactors : int;
  ft_updates : int;
  flips : int;
  rebuilds : int;
  fallbacks : int;
  dense_pivots : int;  (** pivots of the dense delegate *)
  fill_nnz : float;
  words_per_pivot : float;
  oracle_calls : int;
  rounds : int;
  cuts : int;
}

let read_counts () =
  let c name = Obs.value (Obs.counter name) and g name = Obs.gauge_value (Obs.gauge name) in
  {
    pivots = c "lp.sparse.pivots";
    refactors = c "lp.sparse.refactors";
    (* The update-file counter under its current and its planned name. *)
    ft_updates = c "lp.sparse.drift_refactors" + c "lp.sparse.ft_updates";
    flips = c "lp.sparse.bound_flips";
    rebuilds = c "lp.sparse.rebuilds";
    fallbacks = c "lp.sparse.fallbacks";
    dense_pivots = c "lp.pivots";
    fill_nnz = g "lp.sparse.fill_nnz";
    words_per_pivot = g "lp.sparse.allocs_per_pivot";
    oracle_calls = c "sne.separate.oracle_calls";
    rounds = c "sne.cut_rounds";
    cuts = c "sne.cuts_generated";
  }

type report = {
  wall : float;
  master_s : float;
  sep_s : float;
  converged : bool;
  cost : float;
  subsidy : float array;
  counts : counts;
  hwm_kb : int;
}

type msg = Solved of report | Stopped of counts * int

let write_msg fd (m : msg) =
  let b = Marshal.to_bytes m [] in
  let len = Bytes.length b in
  let frame = Bytes.create (8 + len) in
  Bytes.set_int64_be frame 0 (Int64.of_int len);
  Bytes.blit b 0 frame 8 len;
  let rec go off =
    if off < Bytes.length frame then go (off + Unix.write fd frame off (Bytes.length frame - off))
  in
  go 0

(* Read exactly [len] bytes before [deadline]; [false] on timeout or EOF. *)
let read_exact fd buf len ~deadline =
  let rec go off =
    if off = len then true
    else
      let left = deadline -. now () in
      if left <= 0.0 then false
      else
        match Unix.select [ fd ] [] [] left with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | [], _, _ -> false
        | _ -> (
            match Unix.read fd buf off (len - off) with
            | 0 -> false
            | k -> go (off + k)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off)
  in
  go 0

let read_msg fd ~deadline : msg option =
  let hdr = Bytes.create 8 in
  if not (read_exact fd hdr 8 ~deadline) then None
  else
    let len = Int64.to_int (Bytes.get_int64_be hdr 0) in
    let body = Bytes.create len in
    if read_exact fd body len ~deadline then Some (Marshal.from_bytes body 0) else None

let child ~traced fd entry =
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle
       (fun _ ->
         write_msg fd (Stopped (read_counts (), vm_hwm_kb ()));
         Unix._exit 0));
  let case = entry.build () in
  Gc.compact ();
  if traced then begin
    Obs.reset ();
    Obs.set_enabled true
  end;
  let master = ref 0.0 and sep = ref 0.0 in
  let t0 = now () in
  let mark = ref t0 in
  let poll () =
    let t = now () in
    master := !master +. (t -. !mark);
    mark := t
  and on_round ~round:_ ~cuts:_ =
    let t = now () in
    sep := !sep +. (t -. !mark);
    mark := t
  in
  let r, s =
    if traced then Sne.cutting_plane ~poll ~on_round case.spec ~state:case.state
    else Sne.cutting_plane case.spec ~state:case.state
  in
  let t1 = now () in
  if traced then sep := !sep +. (t1 -. !mark);
  write_msg fd
    (Solved
       {
         wall = t1 -. t0;
         master_s = !master;
         sep_s = !sep;
         converged = s.Sne.converged;
         cost = r.Sne.cost;
         subsidy = r.Sne.subsidy;
         counts = read_counts ();
         hwm_kb = vm_hwm_kb ();
       });
  Unix._exit 0

type solve =
  | Done of report
  | Capped of (counts * int) option  (** counters at the cap, when the child answered *)
  | Crashed

let run_capped ~traced ~cap entry =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      (try child ~traced wr entry with _ -> Unix._exit 3)
  | pid ->
      Unix.close wr;
      let deadline = now () +. cap in
      let result =
        match read_msg rd ~deadline with
        | Some (Solved r) -> Done r
        | None when now () < deadline -> Crashed (* the pipe closed early *)
        | Some (Stopped _) | None -> (
            (match Unix.kill pid Sys.sigusr1 with () -> () | exception Unix.Unix_error _ -> ());
            match read_msg rd ~deadline:(now () +. 2.0) with
            | Some (Stopped (c, h)) -> Capped (Some (c, h))
            | Some (Solved r) -> Capped (Some (r.counts, r.hwm_kb))
            | None -> Capped None)
      in
      (match Unix.kill pid Sys.sigkill with () -> () | exception Unix.Unix_error _ -> ());
      Unix.close rd;
      let rec reap () =
        match Unix.waitpid [] pid with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      in
      reap ();
      result


(* ------------------------------------------------------------------ *)
(* Answer checks (parent side, after the solves, untimed)              *)
(* ------------------------------------------------------------------ *)

(* A solve passes when its subsidies enforce the target (the Lemma 2
   checker) and its cost equals the LP (3) broadcast optimum on the same
   tree: the compact formulation, solved directly instead of by cutting
   planes. Optima are cached per instance; [seconds] is context only. *)
let checker () =
  let refs = Hashtbl.create 64 and seconds = ref 0.0 in
  let check e (r : report) =
    let t0 = now () in
    let case = e.build () in
    let want =
      match Hashtbl.find_opt refs (e.family, e.seed) with
      | Some v -> v
      | None ->
          let v = (Sne.broadcast case.spec ~root:(G.Tree.root case.tree) case.tree).Sne.cost in
          Hashtbl.replace refs (e.family, e.seed) v;
          v
    in
    let ok =
      Gm.Broadcast.is_tree_equilibrium ~subsidy:r.subsidy case.spec case.tree && close r.cost want
    in
    seconds := !seconds +. (now () -. t0);
    ok
  in
  (check, seconds)

(* ------------------------------------------------------------------ *)
(* The workload runs                                                   *)
(* ------------------------------------------------------------------ *)

type row = {
  entry : entry;
  status : string;  (** ok | wrong | nonconverged | capped | crashed *)
  wall_s : float;  (** capped and crashed solves count at the cap *)
  rep : report option;
  snap : (counts * int) option;
}

let row ~cap check entry = function
  | Done r ->
      let status =
        if not r.converged then "nonconverged" else if check entry r then "ok" else "wrong"
      in
      { entry; status; wall_s = r.wall; rep = Some r; snap = Some (r.counts, r.hwm_kb) }
  | Capped snap -> { entry; status = "capped"; wall_s = cap; rep = None; snap }
  | Crashed -> { entry; status = "crashed"; wall_s = cap; rep = None; snap = None }

(* Set-up: generate every instance and its target (then drop them; the
   children rebuild their own) and run one small warm-up solve through
   the fork path. Timed 21 times for a median (it is short). *)
let setup cfg =
  let warm = entry ~family:"warm-up" ~anti:true ~seed:1 (heavy ~n:24) in
  let (), setup_s =
    timed_median ~reps:21 (fun () ->
        List.iter (fun e -> ignore (Sys.opaque_identity (e.build ()))) cfg.entries;
        match run_capped ~traced:false ~cap:30.0 warm with
        | Done _ -> ()
        | _ -> failwith "perfbench: warm-up solve failed")
  in
  Gc.compact ();
  setup_s

let schedule ~seed n =
  let order = Array.init n Fun.id in
  Prng.shuffle (Prng.create seed) order;
  order

(* The largest VmHWM of the solving children. The parent solves
   nothing; its own peak comes from the answer checks. *)
let peak_mb rows =
  let kb = List.fold_left (fun a r -> match r.snap with Some (_, h) -> max a h | None -> a) 0 rows in
  fi kb /. 1024.0

let failed rows = List.length (List.filter (fun r -> r.status <> "ok") rows)
let wrong rows = List.length (List.filter (fun r -> r.status = "wrong") rows)

let context cfg ~seed ~order =
  [
    ("instances", cfg.describe);
    ("cap_s", Printf.sprintf "%g" cfg.cap);
    ("engine", "Revised_sparse with the library's default basis engine and pricing; warm, serial");
    ( "schedule",
      Printf.sprintf "seed %d order %s" seed
        (String.concat "," (Array.to_list (Array.map string_of_int order))) );
  ]

(* Untraced: whole passes over the instance set in the seed's order,
   another pass only while it fits in [seconds]; checks afterwards. The
   parent probes the host's speed (see [Common.probe]) before each solve
   and after the last, on the CPU the children run on; each solve's wall
   is converted to reference seconds with the mean of the probes on
   either side of it. *)
let run_untraced cfg ~seed ~seconds =
  let setup_s = setup cfg in
  let entries = Array.of_list cfg.entries in
  let order = schedule ~seed (Array.length entries) in
  let solved = ref [] and probes = ref [ probe () ] in
  let t0 = now () in
  let rec pass k =
    let p0 = now () in
    Array.iter
      (fun i ->
        solved := (entries.(i), run_capped ~traced:false ~cap:cfg.cap entries.(i)) :: !solved;
        probes := probe () :: !probes)
      order;
    let took = now () -. p0 in
    if now () -. t0 +. took <= seconds then pass (k + 1) else k
  in
  let passes = pass 1 in
  let check, check_s = checker () in
  let rows = List.rev_map (fun (e, s) -> row ~cap:cfg.cap check e s) !solved in
  let walls = Array.of_list (List.map (fun r -> r.wall_s) rows) in
  let probes = Array.of_list (List.rev !probes) in
  let ref_walls = Array.mapi (fun i w -> ref_s w ((probes.(i) +. probes.(i + 1)) /. 2.0)) walls in
  let ok = List.length rows - failed rows in
  {
    attempted = List.length rows;
    failed = failed rows;
    wrong = wrong rows;
    metrics =
      [
        ("setup_s", "s", setup_s);
        ("throughput_per_s", "1/s", ratio (fi ok) (sum ref_walls));
        ("ok_share", "ratio", ratio (fi ok) (fi (List.length rows)));
        ("peak_rss_mb", "MB", peak_mb rows);
      ];
    context =
      context cfg ~seed ~order
      @ [
          ("samples", Printf.sprintf "%d solves in %d pass(es)" (List.length rows) passes);
          ( "throughput",
            Printf.sprintf "%.4f/s in wall seconds, %.4f/s in reference seconds"
              (ratio (fi ok) (sum walls)) (ratio (fi ok) (sum ref_walls)) );
          ( "probe",
            Printf.sprintf "median %.2f ms, range %.2f-%.2f ms (reference %.2f ms)"
              (1e3 *. median probes)
              (1e3 *. Array.fold_left Float.min Float.infinity probes)
              (1e3 *. Array.fold_left Float.max 0.0 probes)
              (1e3 *. probe_ref_s) );
          ( "latency",
            Printf.sprintf "p50 %.1f ms, p90 %.1f ms per solve" (1e3 *. median walls)
              (1e3 *. quantile walls 0.9) );
          ("checks_s", Printf.sprintf "%.3f" !check_s);
        ];
  }

let print_rows rows =
  Printf.printf "%-11s %5s %-12s %10s %7s %6s %6s %6s %9s %6s %6s %7s %7s\n" "family" "seed"
    "status" "wall_ms" "pivots" "refac" "rebld" "fallbk" "dense_pv" "rounds" "cuts" "master"
    "sep";
  List.iter
    (fun r ->
      let ci f = match r.snap with Some (c, _) -> string_of_int (f c) | None -> "-" in
      let share f =
        match r.rep with
        | Some rep -> Printf.sprintf "%.1f%%" (100.0 *. ratio (f rep) rep.wall)
        | None -> "-"
      in
      Printf.printf "%-11s %5d %-12s %10.1f %7s %6s %6s %6s %9s %6s %6s %7s %7s\n" r.entry.family
        r.entry.seed r.status (1e3 *. r.wall_s)
        (ci (fun c -> c.pivots))
        (ci (fun c -> c.refactors))
        (ci (fun c -> c.rebuilds))
        (ci (fun c -> c.fallbacks))
        (ci (fun c -> c.dense_pivots))
        (ci (fun c -> c.rounds))
        (ci (fun c -> c.cuts))
        (share (fun r -> r.master_s))
        (share (fun r -> r.sep_s)))
    rows

(* Traced: one pass; each instance is solved untraced and then traced
   (obs on, hooks in), so the tracing overhead is measured on the same
   solves the layer figures come from. Returns the outcome and
   [cut.coverage]. *)
let run_traced cfg ~seed =
  let setup_s = setup cfg in
  let entries = Array.of_list cfg.entries in
  let order = schedule ~seed (Array.length entries) in
  let cap = cfg.cap in
  let solved =
    Array.to_list order
    |> List.map (fun i ->
           let e = entries.(i) in
           (e, run_capped ~traced:false ~cap e, run_capped ~traced:true ~cap e))
  in
  let probe = Option.map (fun e -> (e, run_capped ~traced:true ~cap e)) cfg.probe in
  let check, _ = checker () in
  let pairs = List.map (fun (e, p, t) -> (row ~cap check e p, row ~cap check e t)) solved in
  let probe = Option.to_list (Option.map (fun (e, s) -> row ~cap check e s) probe) in
  (* The probe joins the layer figures but not the operation counts. *)
  let rows = List.map snd pairs @ probe in
  print_rows rows;
  let counts = List.filter_map (fun r -> Option.map fst r.snap) rows in
  let reps = List.filter_map (fun r -> r.rep) rows in
  let n = fi (List.length rows) in
  let csum f = fi (List.fold_left (fun a c -> a + f c) 0 counts) in
  let rsum f = List.fold_left (fun a r -> a +. f r) 0.0 reps in
  let wall = rsum (fun r -> r.wall) and master = rsum (fun r -> r.master_s) in
  let sep = rsum (fun r -> r.sep_s) in
  let pivots = csum (fun c -> c.pivots) and dense = csum (fun c -> c.dense_pivots) in
  let oracle = csum (fun c -> c.oracle_calls) in
  let words = List.fold_left (fun a c -> a +. (c.words_per_pivot *. fi c.pivots)) 0.0 counts in
  let all_wall = List.fold_left (fun a r -> a +. r.wall_s) 0.0 rows in
  let fallback_wall =
    List.fold_left
      (fun a r -> match r.snap with Some (c, _) when c.fallbacks > 0 -> a +. r.wall_s | _ -> a)
      0.0 rows
  in
  let both = List.filter (fun (p, t) -> p.status = "ok" && t.status = "ok") pairs in
  let plain_wall = List.fold_left (fun a (p, _) -> a +. p.wall_s) 0.0 both in
  let traced_wall = List.fold_left (fun a (_, t) -> a +. t.wall_s) 0.0 both in
  let coverage = ratio (master +. sep) wall in
  let plain_walls = Array.of_list (List.map (fun (p, _) -> p.wall_s) pairs) in
  let layer =
    [
      ("lat.p50_ms", "ms", 1e3 *. median plain_walls);
      ("lat.tail_ms", "ms", 1e3 *. quantile plain_walls 0.9);
      ("lp.master_s", "s", master);
      ("lp.master_share", "ratio", ratio master wall);
      ("lp.us_per_pivot", "us", 1e6 *. ratio master (pivots +. dense));
      ("lp.pivots_per_solve", "count", ratio pivots n);
      ("lp.refactors_per_solve", "count", ratio (csum (fun c -> c.refactors)) n);
      ("lp.ft_updates_per_solve", "count", ratio (csum (fun c -> c.ft_updates)) n);
      ("lp.bound_flips_per_pivot", "ratio", ratio (csum (fun c -> c.flips)) pivots);
      ("lp.rebuilds_per_solve", "count", ratio (csum (fun c -> c.rebuilds)) n);
      ("lp.fallbacks_per_solve", "count", ratio (csum (fun c -> c.fallbacks)) n);
      ("lp.dense_pivots_per_solve", "count", ratio dense n);
      ("lp.fallback_wall_share", "ratio", ratio fallback_wall all_wall);
      ("lp.words_per_pivot", "words", ratio words pivots);
      ("lp.fill_nnz", "count", mean (Array.of_list (List.map (fun c -> c.fill_nnz) counts)));
      ("sep.s", "s", sep);
      ("sep.share", "ratio", ratio sep wall);
      ("sep.us_per_oracle", "us", 1e6 *. ratio sep oracle);
      ("sep.oracle_calls_per_solve", "count", ratio oracle n);
      ("sep.yield", "ratio", ratio (csum (fun c -> c.cuts)) oracle);
      ("cut.rounds_per_solve", "count", ratio (csum (fun c -> c.rounds)) n);
      ("cut.cuts_per_solve", "count", ratio (csum (fun c -> c.cuts)) n);
      ("cut.coverage", "ratio", coverage);
      ("trace.overhead_share", "ratio", ratio traced_wall plain_wall -. 1.0);
    ]
  in
  let measured = List.concat_map (fun (p, t) -> [ p; t ]) pairs in
  ( {
      attempted = List.length measured;
      failed = failed measured;
      wrong = wrong (measured @ probe);
      metrics = layer;
      context =
        context cfg ~seed ~order
        @ [
            ("setup_s", Printf.sprintf "%.3f" setup_s);
            ("peak_rss_mb", Printf.sprintf "%.1f" (peak_mb rows));
          ];
    },
    coverage )
