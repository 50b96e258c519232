(* Differential tests for the sparse revised-simplex kernel
   (Repro_lp.Revised_sparse).

   Three layers of cross-validation:
   - raw random LPs against the exact-rational functor simplex and the
     dense unboxed kernel (status and objective agreement, warm and cold);
   - LP (3) broadcast solves and full cutting-plane runs on 200+ random
     SNE instances against the dense backend and (on integer data) the
     exact-rational backend, including zero-weight and duplicated
     (degenerate) edges;
   - the warm-start contract: appending cuts to a live sparse state
     matches a cold re-solve of the accumulated system.

   The sparse and dense kernels may pick different optimal vertices
   (alternate optima), so agreement is on outcome status, objective value
   and certification (the subsidy enforces the equilibrium) — never on
   the subsidy vector itself. *)

module SP = Repro_lp.Revised_sparse
module UF = Repro_lp.Simplex_float
module FS = Repro_lp.Simplex.Float_simplex
module RS = Repro_lp.Simplex.Rat_simplex
module Q = Repro_field.Rational
module Prng = Repro_util.Prng
module Fx = Repro_util.Floatx

let fl = Alcotest.float 1e-7

(* Structural translations between the (nominally distinct) backend
   types. *)
let sp_of_fs (p : FS.problem) : SP.problem =
  SP.make_problem ~n_vars:p.FS.n_vars ~minimize:p.FS.minimize
    ~constraints:
      (List.map
         (fun (c : FS.constr) ->
           {
             SP.coeffs = c.FS.coeffs;
             relation =
               (match c.FS.relation with FS.Leq -> SP.Leq | FS.Geq -> SP.Geq | FS.Eq -> SP.Eq);
             rhs = c.FS.rhs;
             label = c.FS.label;
           })
         p.FS.constraints)
    ~lower:p.FS.lower ~upper:p.FS.upper ~var_name:p.FS.var_name ()

let sp_of_uf_constr (c : UF.constr) =
  {
    SP.coeffs = c.UF.coeffs;
    relation = (match c.UF.relation with UF.Leq -> SP.Leq | UF.Geq -> SP.Geq | UF.Eq -> SP.Eq);
    rhs = c.UF.rhs;
    label = c.UF.label;
  }

let sp_leq coeffs rhs = { SP.coeffs; relation = SP.Leq; rhs; label = "cut" }
let sp_geq coeffs rhs = { SP.coeffs; relation = SP.Geq; rhs; label = "cut" }

let expect_optimal = function
  | SP.Optimal s -> s
  | SP.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | SP.Unbounded -> Alcotest.fail "unexpected: unbounded"

let prop ?(count = 100) name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name (QCheck2.Gen.int_range 0 1_000_000) f)

let outcomes_agree a b =
  match (a, b) with
  | SP.Optimal x, SP.Optimal y -> Fx.approx_eq ~eps:1e-6 x.SP.objective y.SP.objective
  | SP.Infeasible, SP.Infeasible | SP.Unbounded, SP.Unbounded -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let unit_tests =
  [
    Alcotest.test_case "sparse: textbook LP and warm-start cuts" `Quick (fun () ->
        (* Same script as the dense kernel's test: min -x - 2y over
           x + y <= 4, x <= 2, y <= 3 -> (1,3); tighten y <= 2 warm;
           then x + y >= 5 is infeasible and infeasibility absorbs. *)
        let lower, upper = SP.nonneg 2 in
        let p =
          SP.make_problem ~n_vars:2
            ~minimize:[ (0, -1.0); (1, -2.0) ]
            ~constraints:
              [
                sp_leq [ (0, 1.0); (1, 1.0) ] 4.0;
                sp_leq [ (0, 1.0) ] 2.0;
                sp_leq [ (1, 1.0) ] 3.0;
              ]
            ~lower ~upper ()
        in
        let st, o = SP.solve_incremental p in
        let s = expect_optimal o in
        Alcotest.check fl "cold objective" (-7.0) s.SP.objective;
        Alcotest.check fl "x" 1.0 s.SP.values.(0);
        Alcotest.check fl "y" 3.0 s.SP.values.(1);
        let s2 = expect_optimal (SP.add_constraint st (sp_leq [ (1, 1.0) ] 2.0)) in
        Alcotest.check fl "after Leq cut" (-6.0) s2.SP.objective;
        let o3 = SP.add_constraint st (sp_geq [ (0, 1.0); (1, 1.0) ] 5.0) in
        Alcotest.(check bool) "infeasible cut detected" true (o3 = SP.Infeasible);
        let o4 = SP.add_constraint st (sp_leq [ (0, 1.0) ] 100.0) in
        Alcotest.(check bool) "stays infeasible" true (o4 = SP.Infeasible));
    Alcotest.test_case "sparse: box-only master solves with zero rows" `Quick (fun () ->
        (* The cutting-plane master starts with no rows at all: the
           all-slack "basis" is empty and the optimum is the lower box
           corner. This is the shape the kernel is built for. *)
        let n = 7 in
        let lower = Array.make n (Some 0.0) in
        let upper = Array.init n (fun i -> Some (float_of_int (i + 1))) in
        let p =
          SP.make_problem ~n_vars:n
            ~minimize:(List.init n (fun i -> (i, 1.0)))
            ~constraints:[] ~lower ~upper ()
        in
        let s = expect_optimal (SP.solve p) in
        Alcotest.check fl "objective" 0.0 s.SP.objective);
    Alcotest.test_case "sparse: unbounded and infeasible detection" `Quick (fun () ->
        let free = Array.make 1 None in
        let p =
          SP.make_problem ~n_vars:1 ~minimize:[ (0, -1.0) ]
            ~constraints:[ sp_geq [ (0, 1.0) ] 0.0 ]
            ~lower:free ~upper:free ()
        in
        Alcotest.(check bool) "unbounded" true (SP.solve p = SP.Unbounded);
        let lower, upper = SP.nonneg 1 in
        let p2 =
          SP.make_problem ~n_vars:1 ~minimize:[ (0, 1.0) ]
            ~constraints:[ sp_geq [ (0, 1.0) ] 5.0; sp_leq [ (0, 1.0) ] 3.0 ]
            ~lower ~upper ()
        in
        Alcotest.(check bool) "infeasible" true (SP.solve p2 = SP.Infeasible));
    Alcotest.test_case "sparse: empty range rejected with the shared message" `Quick
      (fun () ->
        let p =
          SP.make_problem ~n_vars:1 ~minimize:[ (0, 1.0) ] ~constraints:[]
            ~lower:[| Some 3.0 |] ~upper:[| Some 2.0 |] ()
        in
        Alcotest.check_raises "empty"
          (Invalid_argument "Simplex: empty variable range (upper < lower)") (fun () ->
            ignore (SP.solve p)));
    Alcotest.test_case "sparse: Beale degenerate LP terminates" `Quick (fun () ->
        let lower, upper = SP.nonneg 4 in
        let p =
          SP.make_problem ~n_vars:4
            ~minimize:[ (0, -0.75); (1, 150.0); (2, -0.02); (3, 6.0) ]
            ~constraints:
              [
                sp_leq [ (0, 0.25); (1, -60.0); (2, -0.04); (3, 9.0) ] 0.0;
                sp_leq [ (0, 0.5); (1, -90.0); (2, -0.02); (3, 3.0) ] 0.0;
                sp_leq [ (2, 1.0) ] 1.0;
              ]
            ~lower ~upper ()
        in
        Alcotest.check fl "objective" (-0.05) (expect_optimal (SP.solve p)).SP.objective);
    Alcotest.test_case "sparse: rejects non-finite input up front" `Quick (fun () ->
        let expect_invalid what f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: non-finite value accepted" what
        in
        let free n = Array.make n None in
        expect_invalid "objective NaN" (fun () ->
            SP.make_problem ~n_vars:2 ~minimize:[ (0, Float.nan) ] ~constraints:[]
              ~lower:(free 2) ~upper:(free 2) ());
        expect_invalid "rhs inf" (fun () ->
            SP.make_problem ~n_vars:1 ~minimize:[ (0, 1.0) ]
              ~constraints:[ sp_leq [ (0, 1.0) ] Float.infinity ]
              ~lower:(free 1) ~upper:(free 1) ());
        let lower, upper = SP.nonneg 1 in
        let p =
          SP.make_problem ~n_vars:1 ~minimize:[ (0, 1.0) ] ~constraints:[] ~lower ~upper ()
        in
        let st, _ = SP.solve_incremental p in
        expect_invalid "warm cut NaN" (fun () ->
            SP.add_constraint st (sp_geq [ (0, Float.nan) ] 0.0)));
    Alcotest.test_case "sparse: long warm cut stream matches a dense cold solve" `Quick
      (fun () ->
        (* Append 80 cuts to one live state; the answer stays exact
           throughout. min sum x_i, box [0,10]^n, cuts x_i + x_j >= k
           force the objective up. *)
        let n = 12 in
        let lower = Array.make n (Some 0.0) and upper = Array.make n (Some 10.0) in
        let p =
          SP.make_problem ~n_vars:n
            ~minimize:(List.init n (fun i -> (i, 1.0)))
            ~constraints:[] ~lower ~upper ()
        in
        let st, _ = SP.solve_incremental p in
        let last = ref SP.Infeasible in
        for k = 1 to 80 do
          let i = k mod n and j = (k * 7) mod n in
          let coeffs = if i = j then [ (i, 1.0) ] else [ (i, 1.0); (j, 1.0) ] in
          last := SP.add_constraint st (sp_geq coeffs (float_of_int (1 + (k mod 5))))
        done;
        let s = expect_optimal !last in
        (* Cross-check the accumulated system cold on the dense kernel. *)
        let cuts = ref [] in
        for k = 80 downto 1 do
          let i = k mod n and j = (k * 7) mod n in
          let coeffs = if i = j then [ (i, 1.0) ] else [ (i, 1.0); (j, 1.0) ] in
          cuts :=
            {
              UF.coeffs;
              relation = UF.Geq;
              rhs = float_of_int (1 + (k mod 5));
              label = "cut";
            }
            :: !cuts
        done;
        let dp =
          UF.make_problem ~n_vars:n
            ~minimize:(List.init n (fun i -> (i, 1.0)))
            ~constraints:!cuts
            ~lower:(Array.make n (Some 0.0))
            ~upper:(Array.make n (Some 10.0))
            ()
        in
        (match UF.solve dp with
        | UF.Optimal ds -> Alcotest.check fl "objective" ds.UF.objective s.SP.objective
        | _ -> Alcotest.fail "dense cold solve failed"));
    Alcotest.test_case "sparse: LU refactorization fires on a forced-pivot ratchet" `Quick
      (fun () ->
        (* Forrest–Tomlin updates accrue one per basis pivot, so force a
           long stream of genuinely violated cuts: min sum x_i over the
           box [0,10]^n with ratcheting ring cuts x_i + x_{i+1} >= 2r for
           r = 1..10 — every cut of a new level cuts off the previous
           optimum, so each append costs real dual pivots. The update
           file must overflow its cap and trigger at least one
           refactorization, with the answers exact throughout. *)
        let n = 12 in
        let lower = Array.make n (Some 0.0) and upper = Array.make n (Some 10.0) in
        let p =
          SP.make_problem ~n_vars:n
            ~minimize:(List.init n (fun i -> (i, 1.0)))
            ~constraints:[] ~lower ~upper ()
        in
        let st, _ = SP.solve_incremental p in
        let last = ref SP.Infeasible in
        for r = 1 to 10 do
          for i = 0 to n - 1 do
            let j = (i + 1) mod n in
            last :=
              SP.add_constraint st
                (sp_geq [ (i, 1.0); (j, 1.0) ] (2.0 *. float_of_int r))
          done
        done;
        let s = expect_optimal !last in
        (* The ring cuts at level 10 sum to 2 * sum x_i >= 20n. *)
        Alcotest.check fl "objective" (float_of_int (10 * n)) s.SP.objective;
        Alcotest.(check bool) "refactorized at least once" true (SP.refactors st >= 1));
    Alcotest.test_case "sparse: patch re-binds rhs/objective/bounds in place" `Quick
      (fun () ->
        let lower, upper = SP.nonneg 2 in
        let p =
          SP.make_problem ~n_vars:2
            ~minimize:[ (0, -1.0); (1, -2.0) ]
            ~constraints:
              [
                sp_leq [ (0, 1.0); (1, 1.0) ] 4.0;
                sp_leq [ (0, 1.0) ] 2.0;
                sp_leq [ (1, 1.0) ] 3.0;
              ]
            ~lower ~upper ()
        in
        let st, o = SP.solve_incremental p in
        Alcotest.check fl "before patch" (-7.0) (expect_optimal o).SP.objective;
        (* Same matrix, new objective and right-hand sides. *)
        let p' =
          SP.make_problem ~n_vars:2
            ~minimize:[ (0, -2.0); (1, -1.0) ]
            ~constraints:
              [
                sp_leq [ (0, 1.0); (1, 1.0) ] 6.0;
                sp_leq [ (0, 1.0) ] 3.0;
                sp_leq [ (1, 1.0) ] 3.0;
              ]
            ~lower ~upper ()
        in
        (match SP.patch st p' with
        | None -> Alcotest.fail "patch rejected a structurally identical problem"
        | Some o' ->
            Alcotest.check fl "patched objective" (-9.0) (expect_optimal o').SP.objective;
            let cold = SP.solve p' in
            Alcotest.check fl "matches cold re-solve"
              (expect_optimal cold).SP.objective (expect_optimal o').SP.objective);
        (* A changed coefficient is a structural mismatch: None, state
           untouched and still usable. *)
        let bad =
          SP.make_problem ~n_vars:2
            ~minimize:[ (0, -2.0); (1, -1.0) ]
            ~constraints:
              [
                sp_leq [ (0, 1.0); (1, 2.0) ] 6.0;
                sp_leq [ (0, 1.0) ] 3.0;
                sp_leq [ (1, 1.0) ] 3.0;
              ]
            ~lower ~upper ()
        in
        Alcotest.(check bool) "coefficient change rejected" true (SP.patch st bad = None);
        (* So is a changed row count. *)
        let short =
          SP.make_problem ~n_vars:2
            ~minimize:[ (0, -2.0); (1, -1.0) ]
            ~constraints:[ sp_leq [ (0, 1.0); (1, 1.0) ] 6.0 ]
            ~lower ~upper ()
        in
        Alcotest.(check bool) "row-count change rejected" true (SP.patch st short = None);
        (* After a warm-appended cut, a patch problem listing base rows plus
           the cut (the session's pool shape) is accepted and re-bound. *)
        ignore (SP.add_constraint st (sp_leq [ (1, 1.0) ] 2.0));
        let p'' =
          SP.make_problem ~n_vars:2
            ~minimize:[ (0, -1.0); (1, -2.0) ]
            ~constraints:
              [
                sp_leq [ (0, 1.0); (1, 1.0) ] 4.0;
                sp_leq [ (0, 1.0) ] 2.0;
                sp_leq [ (1, 1.0) ] 3.0;
                sp_leq [ (1, 1.0) ] 1.0;
              ]
            ~lower ~upper ()
        in
        match SP.patch st p'' with
        | None -> Alcotest.fail "patch rejected base rows + appended cut"
        | Some o'' ->
            (* min -x - 2y over x <= 2, y <= 1, x + y <= 4. *)
            Alcotest.check fl "patched after cut" (-4.0) (expect_optimal o'').SP.objective);
    Alcotest.test_case "sparse: basis_hint round-trips through solve_dual_incremental"
      `Quick (fun () ->
        let lower, upper = SP.nonneg 3 in
        let p =
          SP.make_problem ~n_vars:3
            ~minimize:[ (0, 1.0); (1, 2.0); (2, 3.0) ]
            ~constraints:
              [ sp_geq [ (0, 1.0); (1, 1.0) ] 2.0; sp_geq [ (1, 1.0); (2, 1.0) ] 2.0 ]
            ~lower ~upper ()
        in
        let st, o = SP.solve_incremental p in
        let s = expect_optimal o in
        let hint = SP.basis_hint st in
        let st2, o2 = SP.solve_dual_incremental ~hint p in
        let s2 = expect_optimal o2 in
        Alcotest.check fl "same objective" s.SP.objective s2.SP.objective;
        Alcotest.(check bool) "hinted solve spends no more pivots" true
          (SP.pivots st2 <= SP.pivots st));
  ]

(* ------------------------------------------------------------------ *)
(* Raw random-LP differential (reusing test_lp's generator)            *)
(* ------------------------------------------------------------------ *)

let raw_lp_tests =
  [
    prop "sparse kernel agrees with exact rationals" ~count:200 (fun seed ->
        let fp, rp = Test_lp.random_lp_pair seed in
        match (SP.solve (sp_of_fs fp), RS.solve rp) with
        | SP.Optimal ss, RS.Optimal rs ->
            Fx.approx_eq ~eps:1e-6 ss.SP.objective (Q.to_float rs.objective)
        | SP.Infeasible, RS.Infeasible -> true
        | SP.Unbounded, RS.Unbounded -> true
        | _ -> false);
    prop "sparse warm cuts match dense warm cuts and sparse cold" ~count:150 (fun seed ->
        let fp, _ = Test_lp.random_lp_pair seed in
        let dense = Test_lp.uf_of_fs fp in
        let sparse = sp_of_fs fp in
        let rng = Prng.create (seed + 977) in
        let cuts =
          Test_lp.random_extra_cuts rng ~n_vars:fp.FS.n_vars
            ~count:(Prng.int_in_range rng ~lo:1 ~hi:4)
        in
        let dst, do0 = UF.solve_incremental dense in
        let dwarm = List.fold_left (fun _ c -> UF.add_constraint dst c) do0 cuts in
        let sst, so0 = SP.solve_incremental sparse in
        let swarm =
          List.fold_left (fun _ c -> SP.add_constraint sst (sp_of_uf_constr c)) so0 cuts
        in
        let scold =
          SP.solve
            {
              sparse with
              SP.constraints = sparse.SP.constraints @ List.map sp_of_uf_constr cuts;
            }
        in
        let agree a b =
          match (a, b) with
          | SP.Optimal x, SP.Optimal y -> Fx.approx_eq ~eps:1e-6 x.SP.objective y.SP.objective
          | SP.Infeasible, SP.Infeasible | SP.Unbounded, SP.Unbounded -> true
          | _ -> false
        in
        let agree_dense a b =
          match (a, b) with
          | SP.Optimal x, UF.Optimal y -> Fx.approx_eq ~eps:1e-6 x.SP.objective y.UF.objective
          | SP.Infeasible, UF.Infeasible | SP.Unbounded, UF.Unbounded -> true
          | _ -> false
        in
        agree swarm scold && agree_dense swarm dwarm);
    prop "sparse warm cuts match exact rationals" ~count:120 (fun seed ->
        (* The post-add_constraint half of the rational differential: the
           generator only emits integer data, so the accumulated system
           re-solves exactly over Q. *)
        let fp, rp = Test_lp.random_lp_pair seed in
        let rng = Prng.create (seed + 9001) in
        let cuts =
          Test_lp.random_extra_cuts rng ~n_vars:fp.FS.n_vars
            ~count:(Prng.int_in_range rng ~lo:1 ~hi:4)
        in
        let st, o0 = SP.solve_incremental (sp_of_fs fp) in
        let warm =
          List.fold_left (fun _ c -> SP.add_constraint st (sp_of_uf_constr c)) o0 cuts
        in
        let rcuts =
          List.map
            (fun (c : UF.constr) ->
              {
                RS.coeffs =
                  List.map (fun (i, a) -> (i, Q.of_int (int_of_float a))) c.UF.coeffs;
                relation =
                  (match c.UF.relation with
                  | UF.Leq -> RS.Leq
                  | UF.Geq -> RS.Geq
                  | UF.Eq -> RS.Eq);
                rhs = Q.of_int (int_of_float c.UF.rhs);
                label = c.UF.label;
              })
            cuts
        in
        let rcold = RS.solve { rp with RS.constraints = rp.RS.constraints @ rcuts } in
        match (warm, rcold) with
        | SP.Optimal s, RS.Optimal r ->
            Fx.approx_eq ~eps:1e-6 s.SP.objective (Q.to_float r.objective)
        | SP.Infeasible, RS.Infeasible | SP.Unbounded, RS.Unbounded -> true
        | _ -> false);
    prop "patch matches a cold re-solve of the re-bound problem" ~count:100 (fun seed ->
        let fp, _ = Test_lp.random_lp_pair seed in
        let sparse = sp_of_fs fp in
        let st, _ = SP.solve_incremental sparse in
        let rng = Prng.create (seed + 4242) in
        let p' =
          {
            sparse with
            SP.minimize =
              List.map
                (fun (i, c) -> (i, c +. float_of_int (Prng.int_in_range rng ~lo:(-2) ~hi:2)))
                sparse.SP.minimize;
            constraints =
              List.map
                (fun (c : SP.constr) ->
                  { c with SP.rhs = c.SP.rhs +. float_of_int (Prng.int_in_range rng ~lo:(-3) ~hi:3) })
                sparse.SP.constraints;
            upper =
              Array.map
                (Option.map (fun u -> u +. float_of_int (Prng.int rng 4)))
                sparse.SP.upper;
          }
        in
        match SP.patch st p' with
        | None ->
            (* Only legitimate for a state that fell through to a dense
               tableau no longer in dual layout; the structure matches. *)
            true
        | Some warm -> outcomes_agree warm (SP.solve p'));
  ]

(* ------------------------------------------------------------------ *)
(* SNE instance differential: sparse vs dense vs exact rational        *)
(* ------------------------------------------------------------------ *)

module Gm = Repro_game.Game.Float_game
module G = Gm.G
module W = Repro_game.Weighted.Float_weighted
module Sne = Repro_core.Sne_lp.Float
module Snes = Repro_core.Sne_lp.Float_sparse
module Sner = Repro_core.Sne_lp.Rat
module RGm = Sner.Gm
module RG = Sner.G
module Instances = Repro_core.Instances

(* Random connected multigraphs with small integer weights including
   zero-weight edges and duplicated (parallel) edges — the degenerate
   regime the satellite task calls for. Returned as triples so the same
   topology can be instantiated over floats and exact rationals. *)
let random_int_edges rng ~n ~extra =
  let spine =
    List.init (n - 1) (fun i ->
        let v = i + 1 in
        (Prng.int rng v, v, Prng.int_in_range rng ~lo:0 ~hi:4))
  in
  let extras =
    List.filter_map Fun.id
      (List.init extra (fun _ ->
           let u = Prng.int rng n and v = Prng.int rng n in
           if u = v then None else Some (u, v, Prng.int_in_range rng ~lo:0 ~hi:4)))
  in
  spine @ extras

(* Maximum spanning tree edge ids, computed on the float graph. Weights
   are small integers, so float arithmetic is exact and the id tie-break
   makes the choice identical over any field. *)
let anti_mst_ids g =
  let maxw = G.fold_edges g ~init:0.0 ~f:(fun a e -> Float.max a e.G.weight) in
  let inverted = G.with_weights g (fun e -> maxw -. e.G.weight +. 1.0) in
  match G.mst_kruskal inverted with
  | None -> Alcotest.fail "generator produced a disconnected graph"
  | Some ids -> ids

let int_instance seed =
  let rng = Prng.create seed in
  let n = Prng.int_in_range rng ~lo:5 ~hi:10 in
  let edges = random_int_edges rng ~n ~extra:(Prng.int_in_range rng ~lo:2 ~hi:6) in
  let root = Prng.int rng n in
  (n, edges, root)

let float_side (n, edges, root) =
  let g = G.create ~n (List.map (fun (u, v, w) -> (u, v, float_of_int w)) edges) in
  let spec = Gm.broadcast ~graph:g ~root in
  let tree = G.Tree.of_edge_ids g ~root (anti_mst_ids g) in
  let state = Gm.Broadcast.state_of_tree spec ~root tree in
  (g, spec, tree, state)

let sne_tests =
  [
    prop "cutting plane: sparse vs dense agree and both certify" ~count:60 (fun seed ->
        let _, spec, _, state = float_side (int_instance seed) in
        let rd, sd = Sne.cutting_plane spec ~state in
        let rs, ss = Snes.cutting_plane spec ~state in
        sd.Sne.converged && ss.Snes.converged
        && Fx.approx_eq ~eps:1e-6 rd.Sne.cost rs.Snes.cost
        && Gm.is_equilibrium ~subsidy:rs.Snes.subsidy spec state
        && Gm.is_equilibrium ~subsidy:rd.Sne.subsidy spec state);
    (* No pivot-count ordering is asserted here: a cold sparse solve starts
       dual-feasible from the all-slack basis of the (row-free) box master,
       so it can be cheaper than the cumulative dual re-optimizations the
       warm path pays per appended cut. Only the answers must agree. *)
    prop "cutting plane: sparse warm matches sparse cold" ~count:40 (fun seed ->
        let _, spec, _, state = float_side (int_instance seed) in
        let rw, sw = Snes.cutting_plane ~warm:true spec ~state in
        let rc, sc = Snes.cutting_plane ~warm:false spec ~state in
        sw.Snes.converged && sc.Snes.converged
        && Fx.approx_eq ~eps:1e-6 rw.Snes.cost rc.Snes.cost);
    prop "LP (3) broadcast: sparse vs dense" ~count:40 (fun seed ->
        let (_, _, root) as inst = int_instance seed in
        let _, spec, tree, _ = float_side inst in
        let rd = Sne.broadcast spec ~root tree in
        let rs = Snes.broadcast spec ~root tree in
        Fx.approx_eq ~eps:1e-6 rd.Sne.cost rs.Snes.cost
        && Gm.Broadcast.is_tree_equilibrium ~subsidy:rs.Snes.subsidy spec tree);
    prop "cutting plane: sparse vs exact rational on integer data" ~count:40 (fun seed ->
        let (n, edges, root) as inst = int_instance seed in
        let g, spec, _, state = float_side inst in
        let rg = RG.create ~n (List.map (fun (u, v, w) -> (u, v, Q.of_int w)) edges) in
        let rspec = RGm.broadcast ~graph:rg ~root in
        let rtree = RG.Tree.of_edge_ids rg ~root (anti_mst_ids g) in
        let rstate = RGm.Broadcast.state_of_tree rspec ~root rtree in
        let rs, ss = Snes.cutting_plane spec ~state in
        let rr, sr = Sner.cutting_plane rspec ~state:rstate in
        ss.Snes.converged && sr.Sner.converged
        && Fx.approx_eq ~eps:1e-6 rs.Snes.cost (Q.to_float rr.Sner.cost));
    prop "weighted cutting plane: sparse vs dense" ~count:40 (fun seed ->
        let rng = Prng.create (seed + 31_337) in
        let n = Prng.int_in_range rng ~lo:4 ~hi:8 in
        let graph =
          G.Gen.random_connected rng ~n ~extra_edges:(Prng.int rng 6)
            ~rand_weight:(fun rng -> float_of_int (Prng.int_in_range rng ~lo:0 ~hi:6))
        in
        let root = Prng.int rng n in
        let demand_of _ = float_of_int (Prng.int_in_range rng ~lo:1 ~hi:4) in
        let t = W.broadcast ~graph ~root ~demand_of in
        let tree = G.Tree.of_edge_ids graph ~root (Option.get (G.mst_kruskal graph)) in
        let state = W.Broadcast.state_of_tree t ~root tree in
        let rd, sd = Sne.weighted_cutting_plane t ~state in
        let rs, ss = Snes.weighted_cutting_plane t ~state in
        sd.Sne.converged && ss.Snes.converged
        && Fx.approx_eq ~eps:1e-6 rd.Sne.cost rs.Snes.cost
        && W.is_equilibrium ~subsidy:rs.Snes.subsidy t state);
    prop "parallel separation changes nothing" ~count:15 (fun seed ->
        (* Pool-fanned oracles + guided chunking must leave the cut
           sequence, cost, and stats untouched. *)
        let _, spec, _, state = float_side (int_instance seed) in
        let pool = Repro_parallel.Parallel.Pool.create ~domains:4 () in
        Fun.protect
          ~finally:(fun () -> Repro_parallel.Parallel.Pool.shutdown pool)
          (fun () ->
            let rs, ss = Snes.cutting_plane spec ~state in
            let rp, sp = Snes.cutting_plane ~pool spec ~state in
            ss.Snes.converged && sp.Snes.converged
            && Fx.approx_eq ~eps:1e-9 rs.Snes.cost rp.Snes.cost
            && ss.Snes.rounds = sp.Snes.rounds
            && ss.Snes.generated = sp.Snes.generated));
    prop "obs instrumentation changes no sparse result" ~count:10 (fun seed ->
        (* Counters and the allocs-per-pivot meter must be observers only:
           bit-identical cost and identical cut trajectory either way. *)
        let module O = Repro_obs.Obs in
        let _, spec, _, state = float_side (int_instance seed) in
        let r_on, s_on = O.with_enabled true (fun () -> Snes.cutting_plane spec ~state) in
        let r_off, s_off =
          O.with_enabled false (fun () -> Snes.cutting_plane spec ~state)
        in
        r_on.Snes.cost = r_off.Snes.cost
        && s_on.Snes.rounds = s_off.Snes.rounds
        && s_on.Snes.generated = s_off.Snes.generated
        && s_on.Snes.converged = s_off.Snes.converged);
    Alcotest.test_case "arena scratch steady across successive solves" `Quick
      (fun () ->
        (* After a warm-up solve, further solves on the same domain must
           not regrow the LU refactor arena or the per-domain Dijkstra
           scratch: zero grows-counter delta. The arena unit test pins
           physical buffer reuse; this pins the solver actually living
           inside the borrowed buffers (no per-solve reallocation). *)
        let _, spec, _, state = float_side (int_instance 4242) in
        let run () = ignore (Snes.cutting_plane spec ~state) in
        run ();
        let r0 = Repro_lp.Revised_sparse.refactor_arena_grows () in
        let d0 = G.dijkstra_scratch_grows () in
        run ();
        run ();
        Alcotest.(check int) "refactor arena grows delta" 0
          (Repro_lp.Revised_sparse.refactor_arena_grows () - r0);
        Alcotest.(check int) "dijkstra scratch grows delta" 0
          (G.dijkstra_scratch_grows () - d0));
  ]

let suite = unit_tests @ raw_lp_tests @ sne_tests
