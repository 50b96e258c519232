(* Sparse revised simplex with bounded variables.

   The dense kernel ([Simplex_float]) compiles general bounds away: every
   doubly-bounded variable becomes an explicit upper-bound row, and each
   pivot rewrites the whole O(rows * cols) tableau. On the cutting-plane
   masters of [Sne_lp] that is exactly wrong: the box bounds
   0 <= b_a <= w_a cover every variable (so the dense tableau starts with
   |E| rows before the first cut arrives), while the generated rows are
   sparse tree-path cuts touching a dozen edges each. This kernel keeps
   the bounds implicit and the matrix sparse:

   - columns are the structural variables plus one +1-coefficient slack
     per row (the relation lives in the slack's bounds: <= gives
     s in [0,inf), >= gives s in (-inf,0], = pins s at 0);
   - constraints are stored twice: CSR (rows, append-only — the dual
     ratio test sweeps the leaving row through it) and CSC (per-column
     grow arrays — FTRAN scatters and pricing dot-products walk columns);
   - the basis inverse is a Markowitz-ordered sparse LU factorization
     updated in place by Forrest–Tomlin row eliminations on every pivot
     ([lu_refactor] / [lu_update]);
   - pricing is Devex (reference-framework weights on both the primal and
     the dual side), falling back to Bland's rule after a degeneracy
     streak, mirroring the dense kernel.

   The LU factors live in one op file plus an explicit
   permuted-triangular U: refactorization writes a column op per
   Markowitz pivot (its Gauss multipliers), while each Forrest–Tomlin
   update and each appended cut writes one row op and edits U. FTRAN and
   BTRAN are "apply the op file, then solve with U".

   A fresh problem starts from the all-slack basis: dual feasible for the
   whole LP (3) family (minimize a nonnegative combination of
   lower-bounded variables), in which case the dual simplex repairs
   primal feasibility directly; otherwise a composite phase 1 drives the
   infeasibility out. Numerical trouble — stalls, singular
   refactorization — falls back to a cold rebuild and, as a last resort,
   delegates the state to the dense kernel, so the answer is always
   delivered; only the pivot count changes. Tolerances are aligned with
   [Simplex_float] so the two kernels classify borderline instances the
   same way (the property tests cross-validate both against the
   exact-rational functor). *)

type num = float
type relation = Leq | Geq | Eq

type constr = {
  coeffs : (int * float) list;
  relation : relation;
  rhs : float;
  label : string;
}

type problem = {
  n_vars : int;
  minimize : (int * float) list;
  constraints : constr list;
  lower : float option array;
  upper : float option array;
  var_name : int -> string;
}

type solution = { values : float array; objective : float }
type outcome = Optimal of solution | Infeasible | Unbounded

let name = "revised-simplex-sparse"

module Obs = Repro_obs.Obs

let c_pivots = Obs.counter "lp.sparse.pivots"
let c_primal = Obs.counter "lp.sparse.primal_pivots"
let c_dual = Obs.counter "lp.sparse.dual_pivots"
let c_flips = Obs.counter "lp.sparse.bound_flips"
let c_refactors = Obs.counter "lp.sparse.refactors"

(* Length of the Forrest–Tomlin update file: one tick per nonempty row op
   appended by a basis update or an appended cut. *)
let c_ft_updates = Obs.counter "lp.sparse.ft_updates"
let c_cold = Obs.counter "lp.sparse.cold_solves"
let c_warm = Obs.counter "lp.sparse.warm_solves"
let c_rebuilds = Obs.counter "lp.sparse.rebuilds"
let c_fallbacks = Obs.counter "lp.sparse.fallbacks"
let c_patches = Obs.counter "lp.sparse.patches"

(* Basis-representation fill: nonzeros of U plus the op file, sampled
   after every (re)factorization and update. *)
let g_fill = Obs.gauge "lp.sparse.fill_nnz"

(* Amortized GC minor words per pivot across every solve/add_constraint/
   patch entry since process start (ROADMAP item 5's allocation
   discipline). Metered only while obs is enabled; never read by the
   solver, so obs on/off cannot change results. *)
let g_allocs = Obs.gauge "lp.sparse.allocs_per_pivot"

let alloc_words = Atomic.make 0.0
let alloc_pivots = Atomic.make 0

let atomic_addf a d =
  let rec go () =
    let v = Atomic.get a in
    if not (Atomic.compare_and_set a v (v +. d)) then go ()
  in
  go ()

(* Run [f] with the allocation meter on: charge the Gc minor-words delta
   and the pivot delta ([piv] is sampled before and after) to the
   process-wide amortized gauge. *)
let metered ~piv f =
  if not (Obs.enabled ()) then f ()
  else begin
    let w0 = Gc.minor_words () and p0 = piv () in
    let finish () =
      atomic_addf alloc_words (Gc.minor_words () -. w0);
      let dp = piv () - p0 in
      if dp > 0 then ignore (Atomic.fetch_and_add alloc_pivots dp);
      let p = Atomic.get alloc_pivots in
      if p > 0 then Obs.set g_allocs (Atomic.get alloc_words /. float_of_int p)
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end


(* Same up-front NaN/inf rejection as the dense kernel: a non-finite
   coefficient silently poisons float pricing comparisons. *)
let check_finite ~what ~where x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "%s: non-finite %s (%g)" what where x)

let check_constr ~what (c : constr) =
  List.iter
    (fun (_, a) ->
      check_finite ~what ~where:(Printf.sprintf "coefficient in constraint %S" c.label) a)
    c.coeffs;
  check_finite ~what ~where:(Printf.sprintf "rhs in constraint %S" c.label) c.rhs

let make_problem ~n_vars ?(var_name = fun i -> Printf.sprintf "x%d" i) ~minimize
    ~constraints ~lower ~upper () =
  let what = "Revised_sparse.make_problem" in
  if Array.length lower <> n_vars || Array.length upper <> n_vars then
    invalid_arg (what ^ ": bound arrays must have n_vars entries");
  let check_index (i, _) =
    if i < 0 || i >= n_vars then invalid_arg (what ^ ": variable out of range")
  in
  List.iter check_index minimize;
  List.iter (fun c -> List.iter check_index c.coeffs) constraints;
  List.iter (fun (i, a) ->
      check_finite ~what ~where:(Printf.sprintf "objective coefficient of %s" (var_name i)) a)
    minimize;
  List.iter (check_constr ~what) constraints;
  let check_bound which i = function
    | Some x ->
        check_finite ~what ~where:(Printf.sprintf "%s bound of %s" which (var_name i)) x
    | None -> ()
  in
  Array.iteri (check_bound "lower") lower;
  Array.iteri (check_bound "upper") upper;
  { n_vars; minimize; constraints; lower; upper; var_name }

let nonneg n = (Array.make n (Some 0.0), Array.make n None)

(* Tolerances, aligned with Simplex_float. *)
let pivot_tol = 1e-9
let price_tol = 1e-9
let feas_tol = 1e-9
let phase1_tol = 1e-7
let degen_tol = 1e-12
let bland_after = 40
let eta_drop = 1e-13 (* op-file/U entries below this are rounding noise *)

(* LU knobs. The Markowitz threshold trades sparsity against stability
   the standard way (accept a pivot within a factor [lu_mtol] of its
   column's max); a Forrest–Tomlin update whose new diagonal falls below
   [lu_dtol] is rejected and answered with a fresh factorization. An FT
   row op is one short U-row elimination, so the update file may grow
   [lu_updates] long between refactorizations — and on large masters the
   cap scales as [nrows/4]: once the permuted-U solve dominates FTRAN
   anyway, a longer update file costs almost nothing while each avoided
   Markowitz refactorization saves work that grows with fill. *)
let lu_mtol = 0.1
let lu_dtol = 1e-10
let lu_updates = 100

(* Devex weights are re-anchored (reset to the current frame) once the
   largest weight outgrows this — Harris's classic guard against the
   reference framework drifting into noise. *)
let devex_reset = 1e7

(* ------------------------------------------------------------------ *)
(* The op file                                                         *)
(* ------------------------------------------------------------------ *)

module V = Repro_util.Vec
module Arena = Repro_util.Arena

(* Local unsafe accessors: the non-flambda compiler does not inline
   [fget] across the library boundary, which would box every float
   read in the hot loops. A local [@inline] wrapper reduces to the
   bigarray primitive. Same proof obligation as fget: bounds were
   checked once on loop entry. *)
let[@inline] fget (a : V.fvec) i : float = Bigarray.Array1.unsafe_get a i
let[@inline] fset (a : V.fvec) i (x : float) = Bigarray.Array1.unsafe_set a i x
let[@inline] iget (a : V.ivec) i : int = Bigarray.Array1.unsafe_get a i
let[@inline] iset (a : V.ivec) i (x : int) = Bigarray.Array1.unsafe_set a i x

(* [Float.max] is a plain stdlib function, so every hot-loop call boxes
   both arguments and the result. The sites below never see NaN and
   never need the signed-zero normalization, so a bare comparison is
   value-identical and allocation-free. *)
let[@inline] fmax (x : float) (y : float) : float = if y > x then y else x

(* Shared zero-length vectors for growable vec-array cells: [V.*.grow]
   replaces them before any write can happen. *)
let empty_iv : V.ivec = V.I.make 0 0
let empty_fv : V.fvec = V.F.make 0 0.0

(* Column op (the Gauss multipliers of a Markowitz pivot on row [r]):
     FTRAN   w_i <- w_i - v_i * w_r
     BTRAN   w_r <- w_r - sum_i v_i * w_i
   Row op (from an appended row [r] or a Forrest-Tomlin elimination):
     FTRAN   w_r <- w_r - sum_i v_i * w_i
     BTRAN   w_i <- w_i - v_i * w_r
   Both kinds have a unit pivot: the pivot values live in U's diagonal.
   Ops are stored flat: op [k] keeps its kind in [op_col] ('\001' =
   column), its pivot row in [op_r], and its off-pivot entries in
   [e_idx]/[e_val] at positions [op_start.(k) .. op_start.(k+1) - 1]. Appending an op is
   allocation-free once the buffers are warm, where the PR-7 layout
   consed two fresh arrays and a record per pivot (ROADMAP item 5's
   allocation discipline; see DESIGN.md §13). *)

type core = {
  ns : int; (* structural columns; slack of row r is column ns + r *)
  (* CSR, rows append-only; Bigarray-backed so the sweeps never touch
     the GC *)
  mutable nrows : int;
  mutable row_ptr : int array; (* nrows + 1 entries in use *)
  mutable rc : V.ivec;
  mutable rv : V.fvec;
  mutable nnz : int;
  mutable b : V.fvec; (* rhs per row *)
  (* CSC of the structural columns (slack columns are implicit units) *)
  cr : V.ivec array;
  cv : V.fvec array;
  clen : int array;
  (* per-column data, structural then slacks; length ns + nrows in use *)
  mutable lo : V.fvec; (* neg_infinity = unbounded below *)
  mutable up : V.fvec;
  mutable cost : V.fvec;
  mutable bpos : int array; (* row of a basic column, -1 if nonbasic *)
  mutable nb_up : bool array; (* nonbasic column rests at its upper bound *)
  (* basis *)
  mutable basis : int array; (* per row *)
  mutable xb : V.fvec; (* values of the basic columns, per row *)
  (* flat op file (see above): the factorization's Gauss column ops
     followed by one Forrest-Tomlin row op per pivot/appended cut. *)
  mutable op_col : Bytes.t; (* '\001' = column op *)
  mutable op_r : int array;
  mutable op_start : int array; (* n_etas + 1 entries in use *)
  mutable e_idx : V.ivec;
  mutable e_val : V.fvec;
  mutable e_n : int; (* entry cursor; pending op = [op_start.(n_etas), e_n) *)
  mutable n_etas : int;
  mutable eta_nnz : int;
  (* op-file size right after the last refactorization: the refactor
     trigger bounds the UPDATE file (ops added since), not the
     factorization itself, or dense bases would refactor every pivot *)
  mutable base_etas : int;
  mutable base_nnz : int;
  (* Explicit U of the LU basis, triangular under a pair of
     permutations: position [p] pairs problem row [row_of_pos.(p)] with
     slot [slot_of_pos.(p)], where slot [s] carries basic column
     [basis.(s)]. [udiag] is indexed by slot; [ur_*] hold each row's
     entries strictly right of its diagonal as (slot, value); [uc_*]
     hold each slot's entries strictly above its diagonal as (row,
     value) — the same nonzeros stored both ways. *)
  mutable udiag : V.fvec;
  mutable ur_idx : V.ivec array;
  mutable ur_val : V.fvec array;
  mutable ur_len : int array;
  mutable uc_idx : V.ivec array;
  mutable uc_val : V.fvec array;
  mutable uc_len : int array;
  mutable u_nnz : int; (* off-diagonal U nonzeros *)
  mutable row_of_pos : int array;
  mutable pos_of_row : int array;
  mutable slot_of_pos : int array;
  mutable pos_of_slot : int array;
  mutable n_updates : int; (* Forrest–Tomlin updates since allocation *)
  (* LU scratch: [spike] keeps every FTRAN's op-file intermediate (the
     Forrest–Tomlin spike of the entering column), [fx] the U-solve
     result, [rsp]/[rin]/[hp] the row-spike accumulator, membership
     flags, and elimination heap of [eliminate_row_spike]. *)
  mutable spike : V.fvec;
  mutable fx : V.fvec;
  mutable rsp : V.fvec;
  mutable rin : bool array;
  mutable hp : int array;
  mutable hp_n : int;
  (* Markowitz refactorization spines (row entries and candidate row
     lists), persistent across refactorizations of this core; the
     per-refactorization lengths/counts live in arena scratch. *)
  mutable rf_idx : V.ivec array;
  mutable rf_val : V.fvec array;
  mutable rf_rows : V.ivec array;
  (* Devex reference-framework weights: [dwc] per column (primal),
     [dwr] per row (dual Forrest–Goldfarb). *)
  mutable dwc : V.fvec;
  mutable dwr : V.fvec;
  (* scratch (capacity >= nrows / >= ncols; zeroed by their users) *)
  mutable wk : V.fvec;
  mutable rho : V.fvec;
  mutable yv : V.fvec;
  mutable acc : V.fvec;
  mutable acc_touched : bool array;
  mutable touched : int array;
  mutable n_touched : int;
  (* One-cell magnitude mailbox: [set_rcost]/[candidate] leave their
     float result here instead of returning it — without flambda a
     float returned across a non-inlined call boxes on every pricing
     probe. *)
  cmag : V.fvec;
  (* pricing / anti-cycling *)
  mutable degen_streak : int;
  mutable bland : bool;
  (* stats *)
  mutable n_pivots : int;
  mutable n_refactors : int;
}

let ncols core = core.ns + core.nrows

(* Growable-array helpers for the native bookkeeping arrays (amortized
   doubling); the float payloads use [V.F.grow]/[V.I.grow]. *)
let grow_i a n fill =
  let len = Array.length a in
  if len >= n then a
  else begin
    let a' = Array.make (max n (max 8 (2 * len))) fill in
    Array.blit a 0 a' 0 len;
    a'
  end

let grow_b a n =
  let len = Array.length a in
  if len >= n then a
  else begin
    let a' = Array.make (max n (max 8 (2 * len))) false in
    Array.blit a 0 a' 0 len;
    a'
  end

let grow_any a n fill =
  let len = Array.length a in
  if len >= n then a
  else begin
    let a' = Array.make (max n (max 8 (2 * len))) fill in
    Array.blit a 0 a' 0 len;
    a'
  end

(* ------------------------------------------------------------------ *)
(* Appending ops to the flat file                                      *)
(* ------------------------------------------------------------------ *)

(* Out-of-line entry-buffer growth keeps [op_emit] small enough to
   inline. *)
let op_grow_entries core n =
  core.e_idx <- V.I.grow core.e_idx n 0;
  core.e_val <- V.F.grow core.e_val n 0.0

(* Stage one off-pivot entry of the pending op. *)
let[@inline] op_emit core i v =
  let n = core.e_n in
  if V.I.length core.e_idx <= n then op_grow_entries core (n + 1);
  iset core.e_idx n i;
  fset core.e_val n v;
  core.e_n <- n + 1

let op_reserve core =
  let k = core.n_etas in
  core.op_r <- grow_i core.op_r (k + 1) 0;
  core.op_start <- grow_i core.op_start (k + 2) 0;
  if Bytes.length core.op_col <= k then begin
    let nb = Bytes.length core.op_col in
    let b = Bytes.make (max (k + 1) (max 16 (2 * nb))) '\000' in
    Bytes.blit core.op_col 0 b 0 nb;
    core.op_col <- b
  end

(* Seal the pending entries as one op, stored in reverse emission order.
   The row-op FTRAN and column-op BTRAN dot products sum in stored
   order, so this order is part of the kernel's exact floating-point
   results (and of every pivot count the benches gate). *)
let op_commit core ~col ~r =
  op_reserve core;
  let k = core.n_etas in
  let s = core.op_start.(k) and e = core.e_n in
  let idx = core.e_idx and vl = core.e_val in
  let i = ref s and j = ref (e - 1) in
  while !i < !j do
    let ti = iget idx !i in
    iset idx !i (iget idx !j);
    iset idx !j ti;
    let tv = fget vl !i in
    fset vl !i (fget vl !j);
    fset vl !j tv;
    incr i;
    decr j
  done;
  Bytes.unsafe_set core.op_col k (if col then '\001' else '\000');
  core.op_r.(k) <- r;
  core.op_start.(k + 1) <- e;
  core.n_etas <- k + 1;
  core.eta_nnz <- core.eta_nnz + (e - s) + 1

(* Reset the whole file (refactorization start). *)
let ops_clear core =
  core.n_etas <- 0;
  core.eta_nnz <- 0;
  core.e_n <- 0;
  core.op_start.(0) <- 0

(* ------------------------------------------------------------------ *)
(* FTRAN / BTRAN over the op file                                      *)
(* ------------------------------------------------------------------ *)

(* Solve U x = w (w indexed by problem row) by back substitution in
   position order, scattering each slot's above-diagonal column. The
   result is indexed by slot — and slots are row indices (slot [s]
   carries [basis.(s)]), so it is blitted straight back into [w]. *)
let u_fsolve core (w : V.fvec) =
  let fx = core.fx in
  for p = core.nrows - 1 downto 0 do
    let r = core.row_of_pos.(p) in
    let s = core.slot_of_pos.(p) in
    let t = w.{r} /. core.udiag.{s} in
    fx.{s} <- t;
    if t <> 0.0 then begin
      let ci = core.uc_idx.(s) and cv = core.uc_val.(s) in
      for k = 0 to core.uc_len.(s) - 1 do
        let i = iget ci k in
        fset w i (fget w i -. (fget cv k *. t))
      done
    end
  done;
  V.F.blit fx 0 w 0 core.nrows

(* Solve U^T y = w (w indexed by slot) by forward substitution in
   position order, scattering each row's right-of-diagonal entries; the
   result is indexed by problem row. *)
let u_bsolve core (w : V.fvec) =
  let fx = core.fx in
  for p = 0 to core.nrows - 1 do
    let r = core.row_of_pos.(p) in
    let s = core.slot_of_pos.(p) in
    let t = w.{s} /. core.udiag.{s} in
    fx.{r} <- t;
    if t <> 0.0 then begin
      let ri = core.ur_idx.(r) and rv = core.ur_val.(r) in
      for k = 0 to core.ur_len.(r) - 1 do
        let i = iget ri k in
        fset w i (fget w i -. (fget rv k *. t))
      done
    end
  done;
  V.F.blit fx 0 w 0 core.nrows

(* B^-1 w. The op-file intermediate (the Forrest–Tomlin spike of the
   column being transformed) is saved in [core.spike]: a pivot on the
   column FTRANed last uses it for the basis update. *)
let ftran core (w : V.fvec) =
  let idx = core.e_idx and vl = core.e_val in
  let st = core.op_start and rr = core.op_r and oc = core.op_col in
  for k = 0 to core.n_etas - 1 do
    let s = Array.unsafe_get st k and e = Array.unsafe_get st (k + 1) in
    let r = Array.unsafe_get rr k in
    if Bytes.unsafe_get oc k = '\001' then begin
      let t = fget w r in
      if t <> 0.0 then
        for q = s to e - 1 do
          let i = iget idx q in
          fset w i (fget w i -. (fget vl q *. t))
        done
    end
    else begin
      let acc = ref 0.0 in
      for q = s to e - 1 do
        acc := !acc +. (fget vl q *. fget w (iget idx q))
      done;
      fset w r (fget w r -. !acc)
    end
  done;
  V.F.blit w 0 core.spike 0 core.nrows;
  u_fsolve core w

let btran core (w : V.fvec) =
  u_bsolve core w;
  let idx = core.e_idx and vl = core.e_val in
  let st = core.op_start and rr = core.op_r and oc = core.op_col in
  for k = core.n_etas - 1 downto 0 do
    let s = Array.unsafe_get st k and e = Array.unsafe_get st (k + 1) in
    let r = Array.unsafe_get rr k in
    if Bytes.unsafe_get oc k = '\001' then begin
      let acc = ref 0.0 in
      for q = s to e - 1 do
        acc := !acc +. (fget vl q *. fget w (iget idx q))
      done;
      fset w r (fget w r -. !acc)
    end
    else begin
      let t = fget w r in
      if t <> 0.0 then
        for q = s to e - 1 do
          let i = iget idx q in
          fset w i (fget w i -. (fget vl q *. t))
        done
    end
  done

(* ------------------------------------------------------------------ *)
(* U maintenance                                                       *)
(* ------------------------------------------------------------------ *)

(* [u_nnz] counts each off-diagonal nonzero once: the row-wise side
   ([ur_push]/[ur_remove]) maintains it, the column-wise mirror does
   not. *)
let[@inline] ur_push core r s v =
  let n = core.ur_len.(r) in
  if V.I.length core.ur_idx.(r) <= n then begin
    core.ur_idx.(r) <- V.I.grow core.ur_idx.(r) (n + 1) 0;
    core.ur_val.(r) <- V.F.grow core.ur_val.(r) (n + 1) 0.0
  end;
  iset core.ur_idx.(r) n s;
  fset core.ur_val.(r) n v;
  core.ur_len.(r) <- n + 1;
  core.u_nnz <- core.u_nnz + 1

let[@inline] uc_push core s r v =
  let n = core.uc_len.(s) in
  if V.I.length core.uc_idx.(s) <= n then begin
    core.uc_idx.(s) <- V.I.grow core.uc_idx.(s) (n + 1) 0;
    core.uc_val.(s) <- V.F.grow core.uc_val.(s) (n + 1) 0.0
  end;
  iset core.uc_idx.(s) n r;
  fset core.uc_val.(s) n v;
  core.uc_len.(s) <- n + 1

let ur_remove core r s =
  let n = core.ur_len.(r) in
  let idx = core.ur_idx.(r) in
  let k = ref (-1) in
  for i = 0 to n - 1 do
    if idx.{i} = s then k := i
  done;
  if !k >= 0 then begin
    let last = n - 1 in
    idx.{!k} <- idx.{last};
    fset core.ur_val.(r) !k (fget core.ur_val.(r) last);
    core.ur_len.(r) <- last;
    core.u_nnz <- core.u_nnz - 1
  end

let uc_remove core s r =
  let n = core.uc_len.(s) in
  let idx = core.uc_idx.(s) in
  let k = ref (-1) in
  for i = 0 to n - 1 do
    if idx.{i} = r then k := i
  done;
  if !k >= 0 then begin
    let last = n - 1 in
    idx.{!k} <- idx.{last};
    fset core.uc_val.(s) !k (fget core.uc_val.(s) last);
    core.uc_len.(s) <- last
  end

(* Min-heap of slots keyed by their current position: the row-spike
   elimination below must consume entries in position order, so that
   fill-ins (which always land at strictly later positions) are still
   ahead of the cursor when they appear. *)
let heap_push core s =
  core.hp <- grow_i core.hp (core.hp_n + 1) 0;
  let hp = core.hp and pos = core.pos_of_slot in
  let i = ref core.hp_n in
  core.hp_n <- core.hp_n + 1;
  hp.(!i) <- s;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if pos.(hp.(p)) > pos.(hp.(!i)) then begin
      let t = hp.(p) in
      hp.(p) <- hp.(!i);
      hp.(!i) <- t;
      i := p
    end
    else continue := false
  done

let heap_pop core =
  let hp = core.hp and pos = core.pos_of_slot in
  let top = hp.(0) in
  core.hp_n <- core.hp_n - 1;
  hp.(0) <- hp.(core.hp_n);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < core.hp_n && pos.(hp.(l)) < pos.(hp.(!m)) then m := l;
    if r < core.hp_n && pos.(hp.(r)) < pos.(hp.(!m)) then m := r;
    if !m = !i then continue := false
    else begin
      let t = hp.(!m) in
      hp.(!m) <- hp.(!i);
      hp.(!i) <- t;
      i := !m
    end
  done;
  top

(* Eliminate the exposed row spike of row [it] (now at the last
   position) against the diagonal rows of its entries, in position
   order. [rsp]/[rin] hold the spike by slot and the matching slots sit
   in the heap; both are left clean. Appends the eliminations as one row
   op (they compose exactly: the pivot rows used are never themselves
   modified) and returns the new diagonal [sdiag - sum m_k * sp r_k],
   where [sp] is the spike column being installed at the last position
   ([use_sp] false reads it as all-zero — the appended-row case, whose
   diagonal stays exactly [sdiag]). *)
let eliminate_row_spike core it sdiag (sp : V.fvec) use_sp =
  let d = ref sdiag in
  let e0 = core.op_start.(core.n_etas) in
  while core.hp_n > 0 do
    let q = heap_pop core in
    if core.rin.(q) then begin
      core.rin.(q) <- false;
      let v = core.rsp.{q} in
      core.rsp.{q} <- 0.0;
      if Float.abs v > eta_drop then begin
        let rq = core.row_of_pos.(core.pos_of_slot.(q)) in
        let m = v /. core.udiag.{q} in
        op_emit core rq m;
        if use_sp then d := !d -. (m *. sp.{rq});
        let ri = core.ur_idx.(rq) and rv = core.ur_val.(rq) in
        for k = 0 to core.ur_len.(rq) - 1 do
          let q' = iget ri k in
          core.rsp.{q'} <- core.rsp.{q'} -. (m *. fget rv k);
          if not core.rin.(q') then begin
            core.rin.(q') <- true;
            heap_push core q'
          end
        done
      end
    end
  done;
  if core.e_n > e0 then begin
    op_commit core ~col:false ~r:it;
    Obs.incr c_ft_updates
  end;
  !d

(* Forrest–Tomlin update: the basic column at row/slot [rr] is being
   replaced by the column whose op-file transform (spike) the last FTRAN
   saved in [core.spike]. Deletes U's old column [rr] and its diagonal
   row, shifts both permutations cyclically so [rr] lands at the last
   position, eliminates the exposed row spike (one appended row op), and
   installs the saved spike as U's new last column. Returns [false] when
   the new diagonal collapses below [lu_dtol] — U is then stale and the
   caller must refactorize. *)
let lu_update core rr =
  let n = core.nrows in
  let sp = core.spike in
  let p_out = core.pos_of_slot.(rr) in
  let it = core.row_of_pos.(p_out) in
  (* Delete U's column [rr] (its entries live above the diagonal). *)
  for k = 0 to core.uc_len.(rr) - 1 do
    ur_remove core (iget core.uc_idx.(rr) k) rr
  done;
  core.uc_len.(rr) <- 0;
  (* Gather row [it] as the row spike and delete it from U. *)
  let rlen = core.ur_len.(it) in
  for k = 0 to rlen - 1 do
    let s = iget core.ur_idx.(it) k in
    core.rsp.{s} <- fget core.ur_val.(it) k;
    core.rin.(s) <- true;
    uc_remove core s it
  done;
  core.u_nnz <- core.u_nnz - rlen;
  core.ur_len.(it) <- 0;
  (* Cyclic shift: positions after [p_out] slide down; [it]/[rr] last. *)
  for p = p_out to n - 2 do
    let r' = core.row_of_pos.(p + 1) in
    core.row_of_pos.(p) <- r';
    core.pos_of_row.(r') <- p;
    let s' = core.slot_of_pos.(p + 1) in
    core.slot_of_pos.(p) <- s';
    core.pos_of_slot.(s') <- p
  done;
  core.row_of_pos.(n - 1) <- it;
  core.pos_of_row.(it) <- n - 1;
  core.slot_of_pos.(n - 1) <- rr;
  core.pos_of_slot.(rr) <- n - 1;
  (* Heap-load the spike slots (positions are now final) and eliminate. *)
  core.hp_n <- 0;
  for s = 0 to n - 1 do
    if core.rin.(s) then heap_push core s
  done;
  let d = eliminate_row_spike core it sp.{it} sp true in
  if Float.abs d <= lu_dtol then false
  else begin
    core.udiag.{rr} <- d;
    for r' = 0 to n - 1 do
      if r' <> it then begin
        let v = sp.{r'} in
        if Float.abs v > eta_drop then begin
          ur_push core r' rr v;
          uc_push core rr r' v
        end
      end
    done;
    core.n_updates <- core.n_updates + 1;
    Obs.set g_fill (float_of_int (core.u_nnz + core.nrows + core.eta_nnz));
    true
  end

(* ------------------------------------------------------------------ *)
(* Columns, values, reduced costs                                      *)
(* ------------------------------------------------------------------ *)

(* Scatter column [j] of [A | I] into [w] (caller pre-zeroes). *)
let scatter_col core j (w : V.fvec) =
  if j < core.ns then begin
    let cr = core.cr.(j) and cv = core.cv.(j) in
    for k = 0 to core.clen.(j) - 1 do
      fset w (iget cr k) (fget cv k)
    done
  end
  else w.{j - core.ns} <- 1.0

(* Reduced cost of column [j] under the (possibly phase-1) duals [y],
   left in [core.cmag]: (if phase1 then 0 else cost_j) - y . A_j. *)
let set_rcost core ~phase1 (y : V.fvec) j =
  let c0 = if phase1 then 0.0 else core.cost.{j} in
  if j < core.ns then begin
    let cr = core.cr.(j) and cv = core.cv.(j) in
    let s = ref 0.0 in
    for k = 0 to core.clen.(j) - 1 do
      s := !s +. (fget cv k *. fget y (iget cr k))
    done;
    core.cmag.{0} <- c0 -. !s
  end
  else core.cmag.{0} <- c0 -. y.{j - core.ns}

(* Value of a nonbasic column: its resting bound (0 for free columns). *)
let[@inline] nb_val core j =
  if core.nb_up.(j) then core.up.{j}
  else if core.lo.{j} > neg_infinity then core.lo.{j}
  else 0.0

let[@inline] value_of core j =
  let p = core.bpos.(j) in
  if p >= 0 then core.xb.{p} else nb_val core j

let[@inline] fixed core j = core.lo.{j} = core.up.{j}

(* xb = B^-1 (b - A_N x_N), from scratch (initial build, refactorization,
   crash starts). *)
let recompute_xb core =
  let v = core.wk in
  for r = 0 to core.nrows - 1 do
    v.{r} <- core.b.{r};
    if core.bpos.(core.ns + r) < 0 then v.{r} <- v.{r} -. nb_val core (core.ns + r)
  done;
  for r = 0 to core.nrows - 1 do
    for k = core.row_ptr.(r) to core.row_ptr.(r + 1) - 1 do
      let j = iget core.rc k in
      if core.bpos.(j) < 0 then begin
        let x = nb_val core j in
        if x <> 0.0 then v.{r} <- v.{r} -. (fget core.rv k *. x)
      end
    done
  done;
  ftran core v;
  V.F.blit v 0 core.xb 0 core.nrows

(* ------------------------------------------------------------------ *)
(* Refactorization: rebuild the basis representation from scratch       *)
(* ------------------------------------------------------------------ *)

(* Markowitz working-submatrix scratch, shared per domain through the
   arena (DESIGN.md §13): column counts, candidate-row cursors, row
   lengths, and the packed active flags ([0,n) rows, [n,2n) columns).
   The row/column spines themselves persist on the core ([rf_*]): their
   warmed capacities are problem-shaped, and reusing them across the
   refactorizations of one master is the point. *)
let a_ccount = Arena.ints ()
let a_coln = Arena.ints ()
let a_rlen = Arena.ints ()
let a_act = Arena.bytes ()

(* Markowitz-ordered sparse LU of the current basis matrix
   (column [basis.(s)] at slot [s]), rebuilding the op file (the Gauss
   column ops of each pivot) and the explicit U from scratch. Pivots
   minimize the fill score (rcount-1)(ccount-1) over the candidate rows
   of the few cheapest active columns, restricted to entries within
   [lu_mtol] of their column's magnitude max. The working submatrix
   keeps exact column counts and lazily validated candidate row lists;
   active rows only ever hold entries in active columns. Returns
   [false] on a numerically singular basis — the caller rebuilds cold.
   Recomputes [xb] on success, so refactorization doubles as drift
   repair. Basic columns never move to different rows: the row
   permutation lives inside U. *)
let lu_refactor core =
  let n = core.nrows in
  ops_clear core;
  let nn = max 1 n in
  let rlen = Arena.get a_rlen nn in
  let ccount = Arena.get a_ccount nn in
  let col_n = Arena.get a_coln nn in
  let act = Arena.get a_act (2 * nn) in
  V.I.fill_range rlen 0 n 0;
  V.I.fill_range ccount 0 n 0;
  V.I.fill_range col_n 0 n 0;
  Bytes.fill act 0 (2 * n) '\001';
  (* Load the basis columns into the row spines and candidate lists. *)
  for s = 0 to n - 1 do
    let c = core.basis.(s) in
    if c < core.ns then begin
      let cr = core.cr.(c) and cv = core.cv.(c) in
      for k = 0 to core.clen.(c) - 1 do
        let r = iget cr k in
        let kw = rlen.{r} in
        if V.I.length core.rf_idx.(r) <= kw then begin
          core.rf_idx.(r) <- V.I.grow core.rf_idx.(r) (kw + 1) 0;
          core.rf_val.(r) <- V.F.grow core.rf_val.(r) (kw + 1) 0.0
        end;
        iset core.rf_idx.(r) kw s;
        fset core.rf_val.(r) kw (fget cv k);
        rlen.{r} <- kw + 1;
        ccount.{s} <- ccount.{s} + 1;
        let q = col_n.{s} in
        if V.I.length core.rf_rows.(s) <= q then
          core.rf_rows.(s) <- V.I.grow core.rf_rows.(s) (q + 1) 0;
        iset core.rf_rows.(s) q r;
        col_n.{s} <- q + 1
      done
    end
    else begin
      let r = c - core.ns in
      let kw = rlen.{r} in
      if V.I.length core.rf_idx.(r) <= kw then begin
        core.rf_idx.(r) <- V.I.grow core.rf_idx.(r) (kw + 1) 0;
        core.rf_val.(r) <- V.F.grow core.rf_val.(r) (kw + 1) 0.0
      end;
      iset core.rf_idx.(r) kw s;
      fset core.rf_val.(r) kw 1.0;
      rlen.{r} <- kw + 1;
      ccount.{s} <- 1;
      let q = col_n.{s} in
      if V.I.length core.rf_rows.(s) <= q then
        core.rf_rows.(s) <- V.I.grow core.rf_rows.(s) (q + 1) 0;
      iset core.rf_rows.(s) q r;
      col_n.{s} <- q + 1
    end
  done;
  let rsp = core.rsp and rin = core.rin in
  let cand = Array.make 4 (-1) in
  let ok = ref true in
  let step = ref 0 in
  while !ok && !step < n do
    (* The few cheapest active columns by exact count. *)
    cand.(0) <- -1;
    cand.(1) <- -1;
    cand.(2) <- -1;
    cand.(3) <- -1;
    let n_cand = ref 0 in
    for s = 0 to n - 1 do
      if Bytes.unsafe_get act (n + s) = '\001' then
        if !n_cand < 4 then begin
          cand.(!n_cand) <- s;
          incr n_cand;
          (* keep the worst candidate last *)
          for i = !n_cand - 1 downto 1 do
            if ccount.{cand.(i)} < ccount.{cand.(i - 1)} then begin
              let t = cand.(i) in
              cand.(i) <- cand.(i - 1);
              cand.(i - 1) <- t
            end
          done
        end
        else if ccount.{s} < ccount.{cand.(3)} then begin
          cand.(3) <- s;
          for i = 3 downto 1 do
            if ccount.{cand.(i)} < ccount.{cand.(i - 1)} then begin
              let t = cand.(i) in
              cand.(i) <- cand.(i - 1);
              cand.(i - 1) <- t
            end
          done
        end
    done;
    let best_r = ref (-1) and best_s = ref (-1) and best_score = ref max_int in
    let best_mag = ref 0.0 in
    for ci = 0 to !n_cand - 1 do
      let s = cand.(ci) in
      (* Validate and compact the candidate rows, find the column max. *)
      let rows = core.rf_rows.(s) in
      let w = ref 0 and colmax = ref 0.0 in
      for k = 0 to col_n.{s} - 1 do
        let r = iget rows k in
        if Bytes.unsafe_get act r = '\001' then begin
          (* entry_of r s, inlined *)
          let v = ref 0.0 in
          let ri = core.rf_idx.(r) and rv = core.rf_val.(r) in
          for i = 0 to rlen.{r} - 1 do
            if iget ri i = s then v := fget rv i
          done;
          if !v <> 0.0 then begin
            (* drop duplicates from re-fills *)
            let dup = ref false in
            for i = 0 to !w - 1 do
              if iget rows i = r then dup := true
            done;
            if not !dup then begin
              iset rows !w r;
              incr w;
              if Float.abs !v > !colmax then colmax := Float.abs !v
            end
          end
        end
      done;
      col_n.{s} <- !w;
      if !colmax > lu_dtol then
        for k = 0 to !w - 1 do
          let r = iget rows k in
          let v = ref 0.0 in
          let ri = core.rf_idx.(r) and rv = core.rf_val.(r) in
          for i = 0 to rlen.{r} - 1 do
            if iget ri i = s then v := fget rv i
          done;
          let v = Float.abs !v in
          if v >= lu_mtol *. !colmax then begin
            let score = (rlen.{r} - 1) * (!w - 1) in
            if score < !best_score || (score = !best_score && v > !best_mag)
            then begin
              best_score := score;
              best_mag := v;
              best_r := r;
              best_s := s
            end
          end
        done
    done;
    if !best_r < 0 then ok := false
    else begin
      let r = !best_r and s = !best_s in
      (* piv = entry_of r s, inlined *)
      let piv =
        let v = ref 0.0 in
        let ri = core.rf_idx.(r) and rv = core.rf_val.(r) in
        for i = 0 to rlen.{r} - 1 do
          if iget ri i = s then v := fget rv i
        done;
        !v
      in
      (* Eliminate column [s] from the other rows holding it; the
         multipliers become one column op, committed below. *)
      let e0 = core.op_start.(core.n_etas) in
      for k = 0 to col_n.{s} - 1 do
        let r' = iget core.rf_rows.(s) k in
        if r' <> r && Bytes.unsafe_get act r' = '\001' then begin
          (* load row r' *)
          let len' = rlen.{r'} in
          let ri' = core.rf_idx.(r') and rv' = core.rf_val.(r') in
          for i = 0 to len' - 1 do
            let s' = iget ri' i in
            rsp.{s'} <- fget rv' i;
            rin.(s') <- true
          done;
          let m = rsp.{s} /. piv in
          rin.(s) <- false;
          rsp.{s} <- 0.0;
          op_emit core r' m;
          (* subtract m * (pivot row minus the pivot slot); fresh fill
             slots park in [hp] (free during refactorization) *)
          let n_fills = ref 0 in
          let rpi = core.rf_idx.(r) and rpv = core.rf_val.(r) in
          for i = 0 to rlen.{r} - 1 do
            let s' = iget rpi i in
            if s' <> s then
              if rin.(s') then rsp.{s'} <- rsp.{s'} -. (m *. fget rpv i)
              else begin
                rin.(s') <- true;
                rsp.{s'} <- -.(m *. fget rpv i);
                core.hp.(!n_fills) <- s';
                incr n_fills
              end
          done;
          (* rebuild row r' in place: old entries first (the write
             cursor never passes the read cursor), then fills in the
             historical (reversed) order *)
          let wlen = ref 0 in
          for i = 0 to len' - 1 do
            let s' = iget ri' i in
            if rin.(s') then begin
              rin.(s') <- false;
              let v = rsp.{s'} in
              rsp.{s'} <- 0.0;
              if Float.abs v > eta_drop then begin
                iset core.rf_idx.(r') !wlen s';
                fset core.rf_val.(r') !wlen v;
                incr wlen
              end
              else ccount.{s'} <- ccount.{s'} - 1 (* cancelled *)
            end
          done;
          for f = !n_fills - 1 downto 0 do
            let s' = core.hp.(f) in
            if rin.(s') then begin
              rin.(s') <- false;
              let v = rsp.{s'} in
              rsp.{s'} <- 0.0;
              if Float.abs v > eta_drop then begin
                let kw = !wlen in
                if V.I.length core.rf_idx.(r') <= kw then begin
                  core.rf_idx.(r') <- V.I.grow core.rf_idx.(r') (kw + 1) 0;
                  core.rf_val.(r') <- V.F.grow core.rf_val.(r') (kw + 1) 0.0
                end;
                iset core.rf_idx.(r') kw s';
                fset core.rf_val.(r') kw v;
                wlen := kw + 1;
                ccount.{s'} <- ccount.{s'} + 1;
                let q = col_n.{s'} in
                if V.I.length core.rf_rows.(s') <= q then
                  core.rf_rows.(s') <- V.I.grow core.rf_rows.(s') (q + 1) 0;
                iset core.rf_rows.(s') q r';
                col_n.{s'} <- q + 1
              end
            end
          done;
          rlen.{r'} <- !wlen
        end
      done;
      (* the eliminated entries leave column s *)
      ccount.{s} <- 1;
      if core.e_n > e0 then op_commit core ~col:true ~r;
      (* retire the pivot row and column *)
      Bytes.unsafe_set act r '\000';
      Bytes.unsafe_set act (n + s) '\000';
      core.row_of_pos.(!step) <- r;
      core.pos_of_row.(r) <- !step;
      core.slot_of_pos.(!step) <- s;
      core.pos_of_slot.(s) <- !step;
      core.udiag.{s} <- piv;
      let ri = core.rf_idx.(r) in
      for i = 0 to rlen.{r} - 1 do
        let s' = iget ri i in
        if s' <> s then ccount.{s'} <- ccount.{s'} - 1
      done;
      incr step
    end
  done;
  if !ok then begin
    (* Install U from the retired rows: everything but each row's own
       diagonal sits strictly right of it in position order. The row
       side writes straight into the spines' mirror; the column side
       first counts per slot (reusing [ccount]) so each column grows at
       most once, then fills with [col_n] as cursors. *)
    Array.fill core.ur_len 0 n 0;
    Array.fill core.uc_len 0 n 0;
    core.u_nnz <- 0;
    V.I.fill_range ccount 0 n 0;
    for r = 0 to n - 1 do
      let sd = core.slot_of_pos.(core.pos_of_row.(r)) in
      let cnt = rlen.{r} in
      if V.I.length core.ur_idx.(r) < cnt then begin
        core.ur_idx.(r) <- V.I.grow core.ur_idx.(r) cnt 0;
        core.ur_val.(r) <- V.F.grow core.ur_val.(r) cnt 0.0
      end;
      let ri = core.rf_idx.(r) and rv = core.rf_val.(r) in
      let w = ref 0 in
      for k = 0 to cnt - 1 do
        let s' = iget ri k in
        if s' <> sd then begin
          iset core.ur_idx.(r) !w s';
          fset core.ur_val.(r) !w (fget rv k);
          incr w;
          ccount.{s'} <- ccount.{s'} + 1
        end
      done;
      core.ur_len.(r) <- !w;
      core.u_nnz <- core.u_nnz + !w
    done;
    for s = 0 to n - 1 do
      let c = ccount.{s} in
      if V.I.length core.uc_idx.(s) < c then begin
        core.uc_idx.(s) <- V.I.grow core.uc_idx.(s) c 0;
        core.uc_val.(s) <- V.F.grow core.uc_val.(s) c 0.0
      end
    done;
    V.I.fill_range col_n 0 n 0;
    for r = 0 to n - 1 do
      let ri = core.ur_idx.(r) and rv = core.ur_val.(r) in
      for k = 0 to core.ur_len.(r) - 1 do
        let s' = iget ri k in
        let q = col_n.{s'} in
        iset core.uc_idx.(s') q r;
        fset core.uc_val.(s') q (fget rv k);
        col_n.{s'} <- q + 1;
        core.uc_len.(s') <- q + 1
      done
    done;
    core.base_etas <- core.n_etas;
    core.base_nnz <- core.eta_nnz;
    Obs.set g_fill (float_of_int (core.u_nnz + n + core.eta_nnz));
    recompute_xb core;
    true
  end
  else false

let refactor core =
  Obs.incr c_refactors;
  core.n_refactors <- core.n_refactors + 1;
  lu_refactor core

let maybe_refactor core =
  if
    core.n_etas - core.base_etas >= max lu_updates (core.nrows / 4)
    || core.eta_nnz - core.base_nnz > 24 * (core.nrows + 8)
  then refactor core
  else true

(* Record a basis change (the entering column, FTRANed last so its spike
   sits in [core.spike], now basic at row [r]) in the LU factors, then
   apply the refactorization policy. Returns [false] when the factors
   could not be repaired; the caller stalls into the cold-rebuild
   chain. *)
let basis_pivot core r =
  if lu_update core r then maybe_refactor core else refactor core

(* ------------------------------------------------------------------ *)
(* Feasibility bookkeeping                                             *)
(* ------------------------------------------------------------------ *)

(* Most-violated row: (row, amount, below) with amount <= feas_tol when
   primal feasible. *)
let max_violation core =
  let row = ref (-1) and amt = ref feas_tol and below = ref false in
  for r = 0 to core.nrows - 1 do
    let c = core.basis.(r) in
    let v = core.xb.{r} in
    let d_lo = core.lo.{c} -. v and d_up = v -. core.up.{c} in
    if d_lo > !amt then begin
      row := r;
      amt := d_lo;
      below := true
    end
    else if d_up > !amt then begin
      row := r;
      amt := d_up;
      below := false
    end
  done;
  (!row, !amt, !below)

(* alpha_j = rho . A_j for every column touched by the rows where rho is
   nonzero: a CSR sweep plus the implicit slack units. Results land in
   [acc]; [touched] lists the columns to reset afterwards. Shared by the
   dual ratio test and the primal Devex weight propagation (both need a
   full tableau row). The accumulate step is written out twice (slack,
   then row entries) instead of through a local closure: a closure
   taking the float increment would box it on every call. *)
let dual_sweep core (rho : V.fvec) =
  core.n_touched <- 0;
  let acc = core.acc and tch = core.acc_touched and tl = core.touched in
  let rc = core.rc and rv = core.rv and rp = core.row_ptr in
  for r = 0 to core.nrows - 1 do
    let x = rho.{r} in
    if Float.abs x > 1e-13 then begin
      let j = core.ns + r in
      if Array.unsafe_get tch j then fset acc j (fget acc j +. x)
      else begin
        Array.unsafe_set tch j true;
        fset acc j x;
        Array.unsafe_set tl core.n_touched j;
        core.n_touched <- core.n_touched + 1
      end;
      for k = rp.(r) to rp.(r + 1) - 1 do
        let j = iget rc k in
        let v = x *. fget rv k in
        if Array.unsafe_get tch j then fset acc j (fget acc j +. v)
        else begin
          Array.unsafe_set tch j true;
          fset acc j v;
          Array.unsafe_set tl core.n_touched j;
          core.n_touched <- core.n_touched + 1
        end
      done
    end
  done

let clear_sweep core =
  for k = 0 to core.n_touched - 1 do
    let j = core.touched.(k) in
    core.acc.{j} <- 0.0;
    core.acc_touched.(j) <- false
  done;
  core.n_touched <- 0

(* ------------------------------------------------------------------ *)
(* Pricing                                                             *)
(* ------------------------------------------------------------------ *)

(* Entering-column candidate: the direction (+1 = off its lower bound,
   -1 = off its upper; free columns move either way) or 0 for none, with
   |d| left in [core.cmag]. The PR-7 shape returned [Some (dir, mag)] —
   an option, a tuple and a boxed float on every improving probe of the
   pricing scan. *)
let candidate core ~phase1 (y : V.fvec) j =
  if core.bpos.(j) >= 0 || fixed core j then 0
  else begin
    set_rcost core ~phase1 y j;
    let d = core.cmag.{0} in
    if core.nb_up.(j) then
      if d > price_tol then -1 else 0
    else if core.lo.{j} > neg_infinity then
      if d < -.price_tol then begin
        core.cmag.{0} <- -.d;
        1
      end
      else 0
    else if d < -.price_tol then begin
      core.cmag.{0} <- -.d;
      1
    end
    else if d > price_tol then -1
    else 0
  end

(* Entering-column choice: a full Devex scan maximizing d^2 / gamma_j
   over the reference-framework weights (an approximate projected
   steepest edge). Bland mode takes the least candidate index. *)
let pick_entering core ~phase1 y =
  let n = ncols core in
  if core.bland then begin
    let best = ref (-1) and bdir = ref 0 in
    (try
       for j = 0 to n - 1 do
         let dir = candidate core ~phase1 y j in
         if dir <> 0 then begin
           best := j;
           bdir := dir;
           raise Exit
         end
       done
     with Exit -> ());
    if !best < 0 then None else Some (!best, !bdir)
  end
  else begin
    let best = ref (-1) and bdir = ref 0 and bests = ref 0.0 in
    for j = 0 to n - 1 do
      let dir = candidate core ~phase1 y j in
      if dir <> 0 then begin
        let mag = core.cmag.{0} in
        let s = mag *. mag /. core.dwc.{j} in
        if s > !bests then begin
          best := j;
          bdir := dir;
          bests := s
        end
      end
    done;
    if !best < 0 then None else Some (!best, !bdir)
  end

(* ------------------------------------------------------------------ *)
(* Primal simplex (phase 2, and composite phase 1)                      *)
(* ------------------------------------------------------------------ *)

(* Devex weight propagation after a primal pivot (entering [j], leaving
   row [r], FTRANed entering column [w], alpha = w.(r)): for every
   nonbasic column of the pivot row, gamma_j' <- max(gamma_j',
   (alpha_j'/alpha)^2 gamma_j), and the leaving column restarts at
   max(1, gamma_j/alpha^2). Computing the pivot row costs one BTRAN plus
   a CSR sweep — the Devex surcharge per pivot. Must run before the
   basis arrays mutate. Weights above [devex_reset] re-anchor the whole
   reference framework. *)
let devex_primal_update core j r (w : V.fvec) =
  let aq = w.{r} in
  if Float.abs aq > pivot_tol then begin
    let gq = core.dwc.{j} in
    let rho = core.rho in
    V.F.fill_range rho 0 core.nrows 0.0;
    rho.{r} <- 1.0;
    btran core rho;
    dual_sweep core rho;
    let mx = ref 1.0 in
    for k = 0 to core.n_touched - 1 do
      let j' = core.touched.(k) in
      if j' <> j && core.bpos.(j') < 0 then begin
        let a = core.acc.{j'} /. aq in
        let cand = a *. a *. gq in
        if cand > core.dwc.{j'} then core.dwc.{j'} <- cand;
        if core.dwc.{j'} > !mx then mx := core.dwc.{j'}
      end
    done;
    clear_sweep core;
    let lv = core.basis.(r) in
    core.dwc.{lv} <- fmax 1.0 (gq /. (aq *. aq));
    if fmax !mx core.dwc.{lv} > devex_reset then V.F.fill core.dwc 1.0
  end

(* Dual Devex (Forrest–Goldfarb) weight propagation after a dual pivot
   on row [r] with FTRANed entering column [w]: beta_i <- max(beta_i,
   (w_i/w_r)^2 beta_r) and beta_r <- max(1, beta_r/w_r^2) — essentially
   free, since [w] is already in hand. *)
let devex_dual_update core r (w : V.fvec) =
  let ar = w.{r} in
  if Float.abs ar > pivot_tol then begin
    let br = core.dwr.{r} in
    let t = fmax 1.0 (br /. (ar *. ar)) in
    let mx = ref t in
    for i = 0 to core.nrows - 1 do
      if i <> r then begin
        let wi = w.{i} in
        if wi <> 0.0 then begin
          let cand = wi /. ar *. (wi /. ar) *. br in
          if cand > core.dwr.{i} then core.dwr.{i} <- cand
        end;
        if core.dwr.{i} > !mx then mx := core.dwr.{i}
      end
    done;
    core.dwr.{r} <- t;
    if !mx > devex_reset then V.F.fill core.dwr 1.0
  end

let track_degeneracy core t =
  if t <= degen_tol then begin
    core.degen_streak <- core.degen_streak + 1;
    if core.degen_streak > bland_after then core.bland <- true
  end
  else begin
    core.degen_streak <- 0;
    core.bland <- false
  end

(* One primal step on entering column [j] moving in [dir]. In phase 1,
   infeasible basics block at their violated bound (they become feasible
   there and leave); feasible basics block as usual. The ratio test is
   written flat (no [try_limit] closure: its float arguments would box
   per blocking row, and the captured float refs would be heap cells). *)
let primal_step core ~phase1 j dir =
  let w = core.wk in
  V.F.fill_range w 0 core.nrows 0.0;
  scatter_col core j w;
  ftran core w;
  let limit = ref infinity and leave_r = ref (-1) and leave_up = ref false in
  let leave_mag = ref 0.0 in
  let rng = core.up.{j} -. core.lo.{j} in
  if rng < infinity then limit := rng;
  let fdir = float_of_int dir in
  for r = 0 to core.nrows - 1 do
    let wr = w.{r} in
    if Float.abs wr > pivot_tol then begin
      let delta = -.fdir *. wr in
      let c = core.basis.(r) in
      let bv = core.xb.{r} in
      let lo_b = core.lo.{c} and up_b = core.up.{c} in
      (* blocking ratio of this row, nan = no blocking bound here *)
      let t = ref nan and up_side = ref false in
      if phase1 && bv < lo_b -. feas_tol then begin
        if delta > 0.0 then t := (lo_b -. bv) /. delta
      end
      else if phase1 && bv > up_b +. feas_tol then begin
        if delta < 0.0 then begin
          t := (bv -. up_b) /. -.delta;
          up_side := true
        end
      end
      else if delta < 0.0 then begin
        if lo_b > neg_infinity then t := (bv -. lo_b) /. -.delta
      end
      else if up_b < infinity then begin
        t := (up_b -. bv) /. delta;
        up_side := true
      end;
      if !t = !t then begin
        let t = fmax 0.0 !t in
        let mag = Float.abs wr in
        if t < !limit -. 1e-12 || (t < !limit +. 1e-12 && mag > !leave_mag)
        then begin
          limit := t;
          leave_r := r;
          leave_up := !up_side;
          leave_mag := mag
        end
      end
    end
  done;
  if !limit = infinity then `Unbounded
  else begin
    let t = fmax 0.0 !limit in
    let step = fdir *. t in
    if step <> 0.0 then
      for r = 0 to core.nrows - 1 do
        core.xb.{r} <- core.xb.{r} -. (step *. w.{r})
      done;
    if !leave_r < 0 then begin
      (* Bound flip: the entering column crosses its own range. *)
      core.nb_up.(j) <- not core.nb_up.(j);
      Obs.incr c_flips;
      track_degeneracy core t;
      `Step
    end
    else begin
      let r = !leave_r in
      let vq = nb_val core j +. step in
      devex_primal_update core j r w;
      let lv = core.basis.(r) in
      core.nb_up.(lv) <- !leave_up;
      core.bpos.(lv) <- -1;
      core.basis.(r) <- j;
      core.bpos.(j) <- r;
      core.xb.{r} <- vq;
      core.n_pivots <- core.n_pivots + 1;
      Obs.incr c_pivots;
      Obs.incr c_primal;
      track_degeneracy core t;
      if basis_pivot core r then `Step else `Stalled
    end
  end

(* Phase-1 duals: the composite cost is +-1 on the violated basics. *)
let phase1_duals core (y : V.fvec) =
  V.F.fill_range y 0 core.nrows 0.0;
  for r = 0 to core.nrows - 1 do
    let c = core.basis.(r) in
    let v = core.xb.{r} in
    if v < core.lo.{c} -. feas_tol then y.{r} <- -1.0
    else if v > core.up.{c} +. feas_tol then y.{r} <- 1.0
  done;
  btran core y

let phase2_duals core (y : V.fvec) =
  V.F.fill_range y 0 core.nrows 0.0;
  for r = 0 to core.nrows - 1 do
    y.{r} <- core.cost.{core.basis.(r)}
  done;
  btran core y

let primal_loop core ~phase1 =
  let max_iter = 500 + (20 * (core.nrows + ncols core)) in
  let iter = ref 0 in
  let rec go () =
    if phase1 && (let _, amt, _ = max_violation core in amt <= feas_tol) then
      `Feasible
    else if !iter > max_iter then `Stalled
    else begin
      incr iter;
      let y = core.yv in
      if phase1 then phase1_duals core y else phase2_duals core y;
      match pick_entering core ~phase1 y with
      | None ->
          if not phase1 then `Optimal
          else begin
            let _, amt, _ = max_violation core in
            if amt > phase1_tol then `Infeasible else `Feasible
          end
      | Some (j, dir) -> (
          match primal_step core ~phase1 j dir with
          | `Step -> go ()
          | `Stalled -> `Stalled
          | `Unbounded -> if phase1 then `Stalled else `Unbounded)
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Dual simplex                                                        *)
(* ------------------------------------------------------------------ *)

(* Dual simplex: drive the most-violated basic to its bound, entering
   the column with the best (smallest) dual ratio. The no-candidate
   verdict is a sound infeasibility certificate independent of dual
   feasibility: the leaving row's equation already maximizes (minimizes)
   the basic value over the nonbasic boxes. *)
(* Leaving-row choice for the dual simplex: the largest violation^2 /
   weight under dual Devex (Forrest–Goldfarb). *)
let pick_leaving core =
  let row = ref (-1) and amt = ref feas_tol and below = ref false in
  let bests = ref 0.0 in
  for r = 0 to core.nrows - 1 do
    let c = core.basis.(r) in
    let v = core.xb.{r} in
    let d_lo = core.lo.{c} -. v and d_up = v -. core.up.{c} in
    let a = fmax d_lo d_up in
    if a > feas_tol then begin
      let s = a *. a /. core.dwr.{r} in
      if !row < 0 || s > !bests then begin
        bests := s;
        row := r;
        amt := a;
        below := d_lo >= d_up
      end
    end
  done;
  (!row, !amt, !below)

let dual_loop core =
  let max_iter = 500 + (20 * (core.nrows + ncols core)) in
  let iter = ref 0 in
  let rec go retried =
    let r, _amt, below = pick_leaving core in
    if r < 0 then `Feasible
    else if !iter > max_iter then `Stalled
    else begin
      incr iter;
      let rho = core.rho in
      V.F.fill_range rho 0 core.nrows 0.0;
      rho.{r} <- 1.0;
      btran core rho;
      let y = core.yv in
      phase2_duals core y;
      dual_sweep core rho;
      (* Dual ratio test over the touched nonbasic columns. *)
      let q = ref (-1) and q_ratio = ref infinity and q_mag = ref 0.0 in
      for k = 0 to core.n_touched - 1 do
        let j = core.touched.(k) in
        if core.bpos.(j) < 0 && not (fixed core j) then begin
          let a = core.acc.{j} in
          if Float.abs a > pivot_tol then begin
            let at_up = core.nb_up.(j) in
            let free = (not at_up) && core.lo.{j} = neg_infinity in
            let ok =
              if free then true
              else if below then if at_up then a > 0.0 else a < 0.0
              else if at_up then a < 0.0
              else a > 0.0
            in
            if ok then begin
              set_rcost core ~phase1:false y j;
              let d = core.cmag.{0} in
              let num =
                if free then Float.abs d
                else if at_up then fmax 0.0 (-.d)
                else fmax 0.0 d
              in
              let ratio = num /. Float.abs a in
              if
                ratio < !q_ratio -. 1e-12
                || (ratio < !q_ratio +. 1e-12 && Float.abs a > !q_mag)
              then begin
                q := j;
                q_ratio := ratio;
                q_mag := Float.abs a
              end
            end
          end
        end
      done;
      let alpha_q = if !q >= 0 then core.acc.{!q} else 0.0 in
      clear_sweep core;
      if !q < 0 then `Infeasible
      else begin
        let j = !q in
        let target =
          if below then core.lo.{core.basis.(r)} else core.up.{core.basis.(r)}
        in
        let dq = (core.xb.{r} -. target) /. alpha_q in
        let rng = core.up.{j} -. core.lo.{j} in
        if rng < infinity && Float.abs dq > rng +. feas_tol then begin
          (* The entering column hits its own far bound first: flip it,
             shift the basics, and retry the (still violated) row. *)
          let step = if core.nb_up.(j) then -.rng else rng in
          let w = core.wk in
          V.F.fill_range w 0 core.nrows 0.0;
          scatter_col core j w;
          ftran core w;
          for i = 0 to core.nrows - 1 do
            core.xb.{i} <- core.xb.{i} -. (step *. w.{i})
          done;
          core.nb_up.(j) <- not core.nb_up.(j);
          Obs.incr c_flips;
          go false
        end
        else begin
          let w = core.wk in
          V.F.fill_range w 0 core.nrows 0.0;
          scatter_col core j w;
          ftran core w;
          if
            Float.abs (w.{r} -. alpha_q) > 1e-6 *. fmax 1.0 (Float.abs alpha_q)
            || Float.abs w.{r} <= pivot_tol
          then
            (* FTRAN and BTRAN disagree on the pivot element: the
               representation has drifted. Refactorize once and retry
               the row. *)
            if retried then `Stalled
            else if refactor core then go true
            else `Stalled
          else begin
            let vq = nb_val core j +. dq in
            for i = 0 to core.nrows - 1 do
              core.xb.{i} <- core.xb.{i} -. (dq *. w.{i})
            done;
            devex_dual_update core r w;
            let lv = core.basis.(r) in
            core.nb_up.(lv) <- not below;
            core.bpos.(lv) <- -1;
            core.basis.(r) <- j;
            core.bpos.(j) <- r;
            core.xb.{r} <- vq;
            core.n_pivots <- core.n_pivots + 1;
            Obs.incr c_pivots;
            Obs.incr c_dual;
            track_degeneracy core (Float.abs dq);
            if basis_pivot core r then go false else `Stalled
          end
        end
      end
    end
  in
  go false

(* ------------------------------------------------------------------ *)
(* Building a core                                                     *)
(* ------------------------------------------------------------------ *)

(* Canonical sparse row: duplicate indices merged, exact zeros dropped,
   sorted by column for deterministic sweeps. *)
let canon_coeffs coeffs =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) coeffs in
  let rec merge = function
    | (i, a) :: (j, b) :: tl when i = j -> merge ((i, a +. b) :: tl)
    | (i, a) :: tl -> if a = 0.0 then merge tl else (i, a) :: merge tl
    | [] -> []
  in
  merge sorted

(* Arena-backed canonicalization for the hot append/patch paths: same
   result as [canon_coeffs] (duplicates merged with commutative [+.],
   exact zeros dropped, sorted by column) without the List.sort cons
   traffic. Returns the entry count and the two scratch buffers, valid
   until the next [Arena.get] on these slots. *)
let a_csi = Arena.ints ()
let a_csv = Arena.floats ()

let canon_scratch coeffs =
  let k = List.length coeffs in
  let idx = Arena.get a_csi k and vl = Arena.get a_csv k in
  let n = ref 0 in
  List.iter
    (fun (j, a) ->
      iset idx !n j;
      fset vl !n a;
      incr n)
    coeffs;
  (* In-place insertion sort by column (cut rows arrive nearly sorted).
     Stable, though duplicate-column merge order is immaterial: IEEE
     [+.] is commutative. *)
  for i = 1 to k - 1 do
    let ji = iget idx i and ai = fget vl i in
    let p = ref (i - 1) in
    while !p >= 0 && iget idx !p > ji do
      iset idx (!p + 1) (iget idx !p);
      fset vl (!p + 1) (fget vl !p);
      decr p
    done;
    iset idx (!p + 1) ji;
    fset vl (!p + 1) ai
  done;
  (* Merge duplicate columns left-to-right and drop exact zeros, in
     place — the same run fold as [canon_coeffs]. *)
  let w = ref 0 and i = ref 0 in
  while !i < k do
    let j = iget idx !i in
    let s = ref (fget vl !i) in
    incr i;
    while !i < k && iget idx !i = j do
      s := !s +. fget vl !i;
      incr i
    done;
    if !s <> 0.0 then begin
      iset idx !w j;
      fset vl !w !s;
      incr w
    end
  done;
  (!w, idx, vl)

let slack_bounds = function
  | Leq -> (0.0, infinity)
  | Geq -> (neg_infinity, 0.0)
  | Eq -> (0.0, 0.0)

let alloc_core prob rows =
  let ns = prob.n_vars in
  let nrows = List.length rows in
  let nc = ns + nrows in
  let lo = V.F.make nc neg_infinity and up = V.F.make nc infinity in
  for j = 0 to ns - 1 do
    (match prob.lower.(j) with Some l -> lo.{j} <- l | None -> ());
    (match prob.upper.(j) with Some u -> up.{j} <- u | None -> ());
    if up.{j} < lo.{j} then
      invalid_arg "Simplex: empty variable range (upper < lower)"
  done;
  let cost = V.F.make nc 0.0 in
  List.iter (fun (j, c) -> cost.{j} <- cost.{j} +. c) prob.minimize;
  let canon = List.map (fun c -> (canon_coeffs c.coeffs, c)) rows in
  let nnz = List.fold_left (fun a (cs, _) -> a + List.length cs) 0 canon in
  let row_ptr = Array.make (nrows + 1) 0 in
  let rc = V.I.make (max 1 nnz) 0 and rv = V.F.make (max 1 nnz) 0.0 in
  let b = V.F.make (max 1 nrows) 0.0 in
  let clen = Array.make ns 0 in
  List.iter (fun (cs, _) -> List.iter (fun (j, _) -> clen.(j) <- clen.(j) + 1) cs) canon;
  let cr = Array.init ns (fun j -> V.I.make (max 1 clen.(j)) 0) in
  let cv = Array.init ns (fun j -> V.F.make (max 1 clen.(j)) 0.0) in
  Array.fill clen 0 ns 0;
  let pos = ref 0 in
  List.iteri
    (fun r (cs, (cstr : constr)) ->
      row_ptr.(r) <- !pos;
      List.iter
        (fun (j, a) ->
          rc.{!pos} <- j;
          rv.{!pos} <- a;
          incr pos;
          cr.(j).{clen.(j)} <- r;
          cv.(j).{clen.(j)} <- a;
          clen.(j) <- clen.(j) + 1)
        cs;
      b.{r} <- cstr.rhs;
      let slo, sup = slack_bounds cstr.relation in
      lo.{ns + r} <- slo;
      up.{ns + r} <- sup)
    canon;
  row_ptr.(nrows) <- !pos;
  let bpos = Array.make nc (-1) in
  let nb_up = Array.make nc false in
  for j = 0 to ns - 1 do
    nb_up.(j) <- lo.{j} = neg_infinity && up.{j} < infinity
  done;
  let basis = Array.init (max 1 nrows) (fun r -> ns + r) in
  for r = 0 to nrows - 1 do
    bpos.(ns + r) <- r
  done;
  let core =
    {
      ns;
      nrows;
      row_ptr;
      rc;
      rv;
      nnz;
      b;
      cr;
      cv;
      clen;
      lo;
      up;
      cost;
      bpos;
      nb_up;
      basis;
      xb = V.F.make (max 1 nrows) 0.0;
      op_col = Bytes.make 16 '\000';
      op_r = Array.make 16 0;
      op_start = Array.make 17 0;
      e_idx = V.I.make 64 0;
      e_val = V.F.make 64 0.0;
      e_n = 0;
      n_etas = 0;
      eta_nnz = 0;
      base_etas = 0;
      base_nnz = 0;
      (* the all-slack origin basis is exactly the identity: U = I *)
      udiag = V.F.make (max 1 nrows) 1.0;
      ur_idx = Array.make (max 1 nrows) empty_iv;
      ur_val = Array.make (max 1 nrows) empty_fv;
      ur_len = Array.make (max 1 nrows) 0;
      uc_idx = Array.make (max 1 nrows) empty_iv;
      uc_val = Array.make (max 1 nrows) empty_fv;
      uc_len = Array.make (max 1 nrows) 0;
      u_nnz = 0;
      row_of_pos = Array.init (max 1 nrows) (fun i -> i);
      pos_of_row = Array.init (max 1 nrows) (fun i -> i);
      slot_of_pos = Array.init (max 1 nrows) (fun i -> i);
      pos_of_slot = Array.init (max 1 nrows) (fun i -> i);
      n_updates = 0;
      spike = V.F.make (max 1 nrows) 0.0;
      fx = V.F.make (max 1 nrows) 0.0;
      rsp = V.F.make (max 1 nrows) 0.0;
      rin = Array.make (max 1 nrows) false;
      hp = Array.make (max 1 nrows) 0;
      hp_n = 0;
      rf_idx = Array.make (max 1 nrows) empty_iv;
      rf_val = Array.make (max 1 nrows) empty_fv;
      rf_rows = Array.make (max 1 nrows) empty_iv;
      dwc = V.F.make (max 1 nc) 1.0;
      dwr = V.F.make (max 1 nrows) 1.0;
      wk = V.F.make (max 1 nrows) 0.0;
      rho = V.F.make (max 1 nrows) 0.0;
      yv = V.F.make (max 1 nrows) 0.0;
      acc = V.F.make (max 1 nc) 0.0;
      acc_touched = Array.make (max 1 nc) false;
      touched = Array.make (max 1 nc) 0;
      n_touched = 0;
      cmag = V.F.make 1 0.0;
      degen_streak = 0;
      bland = false;
      n_pivots = 0;
      n_refactors = 0;
    }
  in
  recompute_xb core;
  core

(* The all-slack origin basis is dual feasible when every nonbasic
   reduced cost (= the raw objective coefficient) respects its resting
   bound — the whole LP (3) family qualifies. *)
let dual_feasible_start core =
  let ok = ref true in
  for j = 0 to core.ns - 1 do
    if !ok then begin
      let c = core.cost.{j} in
      if fixed core j then ()
      else if core.nb_up.(j) then ok := c <= price_tol
      else if core.lo.{j} > neg_infinity then ok := c >= -.price_tol
      else ok := Float.abs c <= price_tol
    end
  done;
  !ok

(* The result array is the only allocation here: the per-element value
   computation stays unboxed (explicit loop, [@inline] value_of), and the
   objective accumulates through the [cmag] mailbox so the fold closure
   never boxes its float accumulator. Summation order matches the old
   List.fold_left (head to tail). *)
let extract core prob =
  let values = Array.make core.ns 0.0 in
  for j = 0 to core.ns - 1 do
    Array.unsafe_set values j (value_of core j)
  done;
  core.cmag.{0} <- 0.0;
  List.iter
    (fun (j, c) -> core.cmag.{0} <- core.cmag.{0} +. (c *. Array.unsafe_get values j))
    prob.minimize;
  { values; objective = core.cmag.{0} }

(* Crash the hinted structural columns into the all-slack basis (rows
   still holding their own slack only), then recompute xb. Used by the
   cross-solve warm start. *)
let crash_hint core hint =
  let crashed = ref false in
  List.iter
    (fun j ->
      if j >= 0 && j < core.ns && core.bpos.(j) < 0 && not (fixed core j) then begin
        let w = core.wk in
        V.F.fill_range w 0 core.nrows 0.0;
        scatter_col core j w;
        ftran core w;
        let best = ref (-1) and bestv = ref 1e-7 in
        for r = 0 to core.nrows - 1 do
          if core.basis.(r) = core.ns + r && Float.abs w.{r} > !bestv then begin
            best := r;
            bestv := Float.abs w.{r}
          end
        done;
        if !best >= 0 then begin
          let r = !best in
          let lv = core.basis.(r) in
          core.nb_up.(lv) <- core.lo.{lv} = neg_infinity;
          core.bpos.(lv) <- -1;
          core.basis.(r) <- j;
          core.bpos.(j) <- r;
          if lu_update core r then crashed := true
          else begin
            (* a failed update leaves U stale: revert the crash pivot and
               refactorize the previous (valid) basis *)
            core.basis.(r) <- lv;
            core.bpos.(lv) <- r;
            core.bpos.(j) <- -1;
            ignore (refactor core)
          end
        end
      end)
    hint;
  if !crashed then recompute_xb core

(* Full solve of a fresh core: dual simplex when the origin basis is
   dual feasible (then a primal polish mops up drift), composite
   phase 1 + phase 2 otherwise. [`Fail] = numerical stall; the caller
   delegates to the dense kernel. *)
let solve_core core prob ~hint =
  let polish () =
    match primal_loop core ~phase1:false with
    | `Optimal -> `Done (Optimal (extract core prob))
    | `Unbounded -> `Done Unbounded
    | `Stalled | `Feasible | `Infeasible -> `Fail
  in
  let via_phase1 () =
    match primal_loop core ~phase1:true with
    | `Feasible -> polish ()
    | `Infeasible -> `Done Infeasible
    | `Stalled | `Optimal | `Unbounded -> `Fail
  in
  if dual_feasible_start core then begin
    (match hint with [] -> () | h -> crash_hint core h);
    match dual_loop core with
    | `Feasible -> polish ()
    | `Infeasible -> `Done Infeasible
    | `Stalled -> via_phase1 ()
  end
  else via_phase1 ()

(* ------------------------------------------------------------------ *)
(* Appending a row to a live core                                      *)
(* ------------------------------------------------------------------ *)

(* Append one canonicalized row with a fresh basic slack. The basis
   matrix gains one row and one unit column; the factors gain one row
   op (the new row eliminated against U) and a unit diagonal. Old basic
   values are untouched. Returns [true]
   when the new slack already sits within its bounds. *)
let append_row core (c : constr) =
  let ncs, csi, csv = canon_scratch c.coeffs in
  let r = core.nrows in
  core.rc <- V.I.grow core.rc (core.nnz + ncs) 0;
  core.rv <- V.F.grow core.rv (core.nnz + ncs) 0.0;
  core.row_ptr <- grow_i core.row_ptr (r + 2) 0;
  core.b <- V.F.grow core.b (r + 1) 0.0;
  (* The new slack's value under the current solution; the row's
     coefficients on the old basic columns load the row-spike
     accumulator. *)
  core.hp_n <- 0;
  let v = ref c.rhs in
  for k = 0 to ncs - 1 do
    let j = iget csi k and a = fget csv k in
    core.rc.{core.nnz} <- j;
    core.rv.{core.nnz} <- a;
    core.nnz <- core.nnz + 1;
    let cri = V.I.grow core.cr.(j) (core.clen.(j) + 1) 0 in
    let cvi = V.F.grow core.cv.(j) (core.clen.(j) + 1) 0.0 in
    cri.{core.clen.(j)} <- r;
    cvi.{core.clen.(j)} <- a;
    core.cr.(j) <- cri;
    core.cv.(j) <- cvi;
    core.clen.(j) <- core.clen.(j) + 1;
    v := !v -. (a *. value_of core j);
    let p = core.bpos.(j) in
    if p >= 0 then begin
      core.rsp.{p} <- a;
      core.rin.(p) <- true;
      heap_push core p
    end
  done;
  core.row_ptr.(r + 1) <- core.nnz;
  core.b.{r} <- c.rhs;
  let nc = core.ns + r + 1 in
  core.lo <- V.F.grow core.lo nc 0.0;
  core.up <- V.F.grow core.up nc 0.0;
  core.cost <- V.F.grow core.cost nc 0.0;
  core.bpos <- grow_i core.bpos nc (-1);
  core.nb_up <- grow_b core.nb_up nc;
  let slo, sup = slack_bounds c.relation in
  let sj = core.ns + r in
  core.lo.{sj} <- slo;
  core.up.{sj} <- sup;
  core.cost.{sj} <- 0.0;
  core.nb_up.(sj) <- false;
  core.basis <- grow_i core.basis (r + 1) (-1);
  core.xb <- V.F.grow core.xb (r + 1) 0.0;
  core.basis.(r) <- sj;
  core.bpos.(sj) <- r;
  core.xb.{r} <- !v;
  core.nrows <- r + 1;
  core.wk <- V.F.grow core.wk core.nrows 0.0;
  core.rho <- V.F.grow core.rho core.nrows 0.0;
  core.yv <- V.F.grow core.yv core.nrows 0.0;
  core.acc <- V.F.grow core.acc nc 0.0;
  core.acc_touched <- grow_b core.acc_touched nc;
  core.touched <- grow_i core.touched nc 0;
  core.spike <- V.F.grow core.spike core.nrows 0.0;
  core.fx <- V.F.grow core.fx core.nrows 0.0;
  core.rsp <- V.F.grow core.rsp core.nrows 0.0;
  core.rin <- grow_b core.rin core.nrows;
  core.hp <- grow_i core.hp core.nrows 0;
  core.dwc <- V.F.grow core.dwc nc 0.0;
  core.dwc.{sj} <- 1.0;
  core.dwr <- V.F.grow core.dwr core.nrows 0.0;
  core.dwr.{r} <- 1.0;
  (* The appended unit slack column is untouched by the op file, so U
     gains a unit last column and one new row — the constraint's
     coefficients on the old basic columns, by slot (slot = basic row =
     the positions loaded into [rsp] above). Eliminate that row spike
     exactly like a Forrest–Tomlin update whose spike column is e_r: the
     new diagonal is exactly 1.0. *)
  core.udiag <- V.F.grow core.udiag core.nrows 0.0;
  core.ur_idx <- grow_any core.ur_idx core.nrows empty_iv;
  core.ur_val <- grow_any core.ur_val core.nrows empty_fv;
  core.ur_len <- grow_i core.ur_len core.nrows 0;
  core.uc_idx <- grow_any core.uc_idx core.nrows empty_iv;
  core.uc_val <- grow_any core.uc_val core.nrows empty_fv;
  core.uc_len <- grow_i core.uc_len core.nrows 0;
  core.rf_idx <- grow_any core.rf_idx core.nrows empty_iv;
  core.rf_val <- grow_any core.rf_val core.nrows empty_fv;
  core.rf_rows <- grow_any core.rf_rows core.nrows empty_iv;
  core.row_of_pos <- grow_i core.row_of_pos core.nrows 0;
  core.pos_of_row <- grow_i core.pos_of_row core.nrows 0;
  core.slot_of_pos <- grow_i core.slot_of_pos core.nrows 0;
  core.pos_of_slot <- grow_i core.pos_of_slot core.nrows 0;
  core.ur_idx.(r) <- empty_iv;
  core.ur_val.(r) <- empty_fv;
  core.ur_len.(r) <- 0;
  core.uc_idx.(r) <- empty_iv;
  core.uc_val.(r) <- empty_fv;
  core.uc_len.(r) <- 0;
  core.row_of_pos.(r) <- r;
  core.pos_of_row.(r) <- r;
  core.slot_of_pos.(r) <- r;
  core.pos_of_slot.(r) <- r;
  core.udiag.{r} <- eliminate_row_spike core r 1.0 core.spike false;
  Obs.set g_fill (float_of_int (core.u_nnz + core.nrows + core.eta_nnz));
  !v >= slo -. feas_tol && !v <= sup +. feas_tol

(* ------------------------------------------------------------------ *)
(* Incremental state and the BACKEND surface                           *)
(* ------------------------------------------------------------------ *)

type state = {
  mutable prob : problem; (* rebound in place by [patch] *)
  mutable added : constr list; (* newest first *)
  mutable core : core option;
  mutable deleg : Simplex_float.state option;
  mutable base_pivots : int; (* pivots of abandoned cores *)
  mutable base_refactors : int;
  mutable base_updates : int;
  mutable last : outcome;
}

let pivots st =
  st.base_pivots
  + (match st.core with Some c -> c.n_pivots | None -> 0)
  + (match st.deleg with Some d -> Simplex_float.pivots d | None -> 0)

let refactors st =
  st.base_refactors + match st.core with Some c -> c.n_refactors | None -> 0

let updates st =
  st.base_updates + match st.core with Some c -> c.n_updates | None -> 0

(* Basis-representation nonzeros right now: U (off-diagonals plus the
   diagonal) plus the op file. 0 once the state has delegated to the
   dense kernel. *)
let fill_nnz st =
  match st.core with Some c -> c.u_nnz + c.nrows + c.eta_nnz | None -> 0

(* Delegation to the dense kernel: the structural problem types are
   field-for-field identical, only nominally distinct. *)
let to_dense_relation = function
  | Leq -> Simplex_float.Leq
  | Geq -> Simplex_float.Geq
  | Eq -> Simplex_float.Eq

let to_dense_constr (c : constr) =
  {
    Simplex_float.coeffs = c.coeffs;
    relation = to_dense_relation c.relation;
    rhs = c.rhs;
    label = c.label;
  }

let to_dense_problem (p : problem) extra =
  {
    Simplex_float.n_vars = p.n_vars;
    minimize = p.minimize;
    constraints = List.map to_dense_constr (p.constraints @ extra);
    lower = p.lower;
    upper = p.upper;
    var_name = p.var_name;
  }

let of_dense_outcome = function
  | Simplex_float.Optimal s ->
      Optimal { values = s.Simplex_float.values; objective = s.Simplex_float.objective }
  | Simplex_float.Infeasible -> Infeasible
  | Simplex_float.Unbounded -> Unbounded

let delegate st =
  Obs.incr c_fallbacks;
  (match st.core with
  | Some c ->
      st.base_pivots <- st.base_pivots + c.n_pivots;
      st.base_refactors <- st.base_refactors + c.n_refactors;
      st.base_updates <- st.base_updates + c.n_updates
  | None -> ());
  st.core <- None;
  let d, out =
    Simplex_float.solve_incremental (to_dense_problem st.prob (List.rev st.added))
  in
  st.deleg <- Some d;
  st.last <- of_dense_outcome out;
  st.last

let build_state ?(hint = []) prob =
  let st =
    {
      prob;
      added = [];
      core = None;
      deleg = None;
      base_pivots = 0;
      base_refactors = 0;
      base_updates = 0;
      last = Infeasible;
    }
  in
  metered
    ~piv:(fun () -> pivots st)
    (fun () ->
      let core = alloc_core prob prob.constraints in
      match solve_core core prob ~hint with
      | `Done out ->
          st.core <- Some core;
          st.last <- out
      | `Fail ->
          st.base_pivots <- core.n_pivots;
          st.base_refactors <- core.n_refactors;
          st.base_updates <- core.n_updates;
          ignore (delegate st));
  (st, st.last)

let cold_rebuild st =
  Obs.incr c_rebuilds;
  (match st.core with
  | Some c ->
      st.base_pivots <- st.base_pivots + c.n_pivots;
      st.base_refactors <- st.base_refactors + c.n_refactors;
      st.base_updates <- st.base_updates + c.n_updates
  | None -> ());
  st.core <- None;
  let prob = st.prob in
  let core = alloc_core prob (prob.constraints @ List.rev st.added) in
  match solve_core core prob ~hint:[] with
  | `Done out ->
      st.core <- Some core;
      st.last <- out;
      out
  | `Fail ->
      st.base_pivots <- st.base_pivots + core.n_pivots;
      st.base_refactors <- st.base_refactors + core.n_refactors;
      st.base_updates <- st.base_updates + core.n_updates;
      delegate st

let solve_incremental prob =
  Obs.incr c_cold;
  build_state prob

let solve prob = snd (solve_incremental prob)

let solve_dual_incremental ?(hint = []) prob =
  Obs.incr c_cold;
  build_state ~hint prob

let basis_hint st =
  match (st.core, st.deleg) with
  | Some core, _ ->
      let out = ref [] in
      for j = core.ns - 1 downto 0 do
        if core.bpos.(j) >= 0 then out := j :: !out
      done;
      !out
  | None, Some d -> Simplex_float.basis_hint d
  | None, None -> []

let add_constraint st (c : constr) =
  let what = "Revised_sparse.add_constraint" in
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= st.prob.n_vars then invalid_arg (what ^ ": variable out of range"))
    c.coeffs;
  check_constr ~what c;
  st.added <- c :: st.added;
  metered ~piv:(fun () -> pivots st) @@ fun () ->
  match st.deleg with
  | Some d ->
      st.last <- of_dense_outcome (Simplex_float.add_constraint d (to_dense_constr c));
      st.last
  | None -> (
      match (st.last, st.core) with
      | Infeasible, _ -> Infeasible
      | _, None | Unbounded, _ -> cold_rebuild st
      | Optimal _, Some core ->
          Obs.incr c_warm;
          if append_row core c then st.last
          else begin
            let polish () =
              match primal_loop core ~phase1:false with
              | `Optimal ->
                  st.last <- Optimal (extract core st.prob);
                  st.last
              | `Unbounded ->
                  st.last <- Unbounded;
                  st.last
              | `Stalled | `Feasible | `Infeasible -> cold_rebuild st
            in
            match dual_loop core with
            | `Feasible -> polish ()
            | `Infeasible ->
                st.last <- Infeasible;
                st.last
            | `Stalled -> cold_rebuild st
          end)

(* ------------------------------------------------------------------ *)
(* In-place re-bind of a structurally identical problem               *)
(* ------------------------------------------------------------------ *)

(* [patch st p'] rebinds [st] to [p'] without rebuilding anything when
   [p'] has the same variables and the same constraint matrix (count,
   canonical coefficients and relations are checked entry-for-entry
   against the live CSR) — only objective, bounds and right-hand sides
   may differ. On a match the core keeps its basis, factorization,
   Devex weights and pricing state: the new numbers are patched into
   the arrays, [xb] is recomputed through the existing factors, and the
   dual simplex re-optimizes from the retained basis (numerical trouble
   falls through the usual cold-rebuild -> dense-delegate chain
   internally, never to the caller). Returns [None] only on a
   structural mismatch, in which case [st] is untouched and the caller
   must build a fresh state. *)
let patch st (p' : problem) =
  if p'.n_vars <> st.prob.n_vars then None
  else
    metered ~piv:(fun () -> pivots st) @@ fun () ->
    match st.deleg with
    | Some d -> (
        match Simplex_float.patch d (to_dense_problem p' []) with
        | Some out ->
            Obs.incr c_patches;
            st.prob <- p';
            st.added <- [];
            st.last <- of_dense_outcome out;
            Some st.last
        | None -> None)
    | None -> (
        match st.core with
        | None -> None
        | Some core ->
            let cs' = p'.constraints in
            if List.length cs' <> core.nrows then None
            else begin
              let ok = ref true in
              List.iteri
                (fun r (c : constr) ->
                  if !ok then begin
                    let ncs, csi, csv = canon_scratch c.coeffs in
                    let k0 = core.row_ptr.(r) and k1 = core.row_ptr.(r + 1) in
                    let k = ref k0 in
                    for i = 0 to ncs - 1 do
                      if
                        !k >= k1
                        || core.rc.{!k} <> iget csi i
                        || core.rv.{!k} <> fget csv i
                      then ok := false;
                      incr k
                    done;
                    if !k <> k1 then ok := false;
                    let slo, sup = slack_bounds c.relation in
                    if core.lo.{core.ns + r} <> slo || core.up.{core.ns + r} <> sup
                    then ok := false
                  end)
                cs';
              if not !ok then None
              else begin
                Obs.incr c_patches;
                st.prob <- p';
                st.added <- [];
                List.iteri (fun r (c : constr) -> core.b.{r} <- c.rhs) cs';
                V.F.fill_range core.cost 0 core.ns 0.0;
                List.iter
                  (fun (j, c) -> core.cost.{j} <- core.cost.{j} +. c)
                  p'.minimize;
                for j = 0 to core.ns - 1 do
                  core.lo.{j} <-
                    (match p'.lower.(j) with Some l -> l | None -> neg_infinity);
                  core.up.{j} <-
                    (match p'.upper.(j) with Some u -> u | None -> infinity);
                  if core.up.{j} < core.lo.{j} then
                    invalid_arg "Simplex: empty variable range (upper < lower)";
                  if core.bpos.(j) < 0 then begin
                    (* keep the resting side meaningful under the new box *)
                    if core.nb_up.(j) && core.up.{j} = infinity then
                      core.nb_up.(j) <- false;
                    if
                      (not core.nb_up.(j))
                      && core.lo.{j} = neg_infinity
                      && core.up.{j} < infinity
                    then core.nb_up.(j) <- true
                  end
                done;
                recompute_xb core;
                let polish () =
                  match primal_loop core ~phase1:false with
                  | `Optimal ->
                      st.last <- Optimal (extract core st.prob);
                      st.last
                  | `Unbounded ->
                      st.last <- Unbounded;
                      st.last
                  | `Stalled | `Feasible | `Infeasible -> cold_rebuild st
                in
                let out =
                  (* Unlike [add_constraint], the dual pass here may START
                     dual infeasible (the basis was optimal for the old
                     objective), so its [`Infeasible] verdict can be
                     spurious — route it through the cold rebuild, which
                     re-derives the true outcome from scratch. *)
                  match dual_loop core with
                  | `Feasible -> polish ()
                  | `Infeasible | `Stalled -> cold_rebuild st
                in
                Some out
              end
            end)

(* ------------------------------------------------------------------ *)
(* Test hooks                                                          *)
(* ------------------------------------------------------------------ *)

(* Arena-reuse instrumentation for the property tests: total
   reallocation count and current capacity of the refactorization
   scratch slots. A zero delta across two solves on the same domain
   proves the scratch was reused, not reallocated. *)
let refactor_arena_grows () =
  Arena.grows a_ccount + Arena.grows a_coln + Arena.grows a_rlen
  + Arena.grows a_act

let refactor_arena_capacity () = Arena.capacity a_ccount
