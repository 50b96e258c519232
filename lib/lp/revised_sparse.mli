(** Sparse revised simplex with bounded variables.

    Drop-in {!Lp_intf.BACKEND} sibling of {!Simplex_float}, built for the
    cutting-plane workloads of [Sne_lp]: every constraint those masters
    ever see is a sparse tree-path cut over a handful of edge variables,
    and the box bounds [0 <= b_a <= w_a] never need to become rows. Where
    the dense kernel compiles general bounds away (shift / mirror / split
    plus an explicit row per upper bound) and pivots a dense tableau, this
    kernel keeps the bounds implicit — nonbasic variables rest at either
    bound — and represents the basis inverse as a Markowitz-ordered sparse
    LU factorization maintained by Forrest–Tomlin updates over CSR/CSC
    constraint storage, so a pivot costs O(nnz) instead of
    O(rows * cols). Pricing is reference-framework Devex on both the
    primal and the dual side. See DESIGN.md §8 for the data layout and
    §11 for the LU factorization, the update-file growth policy, and
    Devex resets.

    The warm-start contract of {!Lp_intf.BACKEND} is genuinely
    incremental: [add_constraint] appends the row (its fresh slack basic),
    extends the LU factors by one row op, and re-optimizes by dual
    simplex from the previous optimal basis. Numerical trouble (stalls,
    singular refactorization) falls back to a cold rebuild and, as a last
    resort, to the dense {!Simplex_float} kernel — the answer is always
    delivered, only the pivot count changes. The exact-rational functor
    simplex remains the correctness oracle; property tests cross-validate
    every verdict of this kernel against it and against the dense one. *)

type num = float
type relation = Leq | Geq | Eq

type constr = {
  coeffs : (int * float) list;  (** sparse: variable index, coefficient *)
  relation : relation;
  rhs : float;
  label : string;
}

type problem = {
  n_vars : int;
  minimize : (int * float) list;  (** sparse objective *)
  constraints : constr list;
  lower : float option array;  (** [None] = unbounded below *)
  upper : float option array;
  var_name : int -> string;
}

type solution = { values : float array; objective : float }
type outcome = Optimal of solution | Infeasible | Unbounded

(** Backend name for bench labels ("revised-simplex-sparse"). *)
val name : string

(** Validates array lengths and variable indices; raises
    [Invalid_argument]. *)
val make_problem :
  n_vars:int ->
  ?var_name:(int -> string) ->
  minimize:(int * float) list ->
  constraints:constr list ->
  lower:float option array ->
  upper:float option array ->
  unit ->
  problem

(** Bound arrays putting all variables in [\[0, +inf)]. *)
val nonneg : int -> float option array * float option array

(** One-shot solve. Starts the dual simplex directly when the all-slack
    basis is dual feasible (the whole LP (3) family), otherwise runs a
    composite phase 1. Raises [Invalid_argument] on an empty variable
    range (upper < lower). *)
val solve : problem -> outcome

(** Opaque warm-startable solver state: CSR/CSC constraint storage, the
    basis, and its LU factors. *)
type state

val solve_incremental : problem -> state * outcome

(** Append one constraint and re-optimize dual-feasibly from the previous
    basis (one row op plus a short dual-simplex run). Falls back to a
    cold rebuild if the previous outcome was [Unbounded] or the dual pass
    stalls; once [Infeasible], stays [Infeasible]. *)
val add_constraint : state -> constr -> outcome

(** Total simplex pivots spent on this state so far (bound flips are
    counted separately, under [lp.sparse.bound_flips]). *)
val pivots : state -> int

(** Cross-solve warm start, mirroring
    {!Simplex_float.solve_dual_incremental}: crash the variables in
    [hint] (original variable indices, typically an adjacent solve's
    {!basis_hint}) into the all-slack basis, then re-optimize by dual
    simplex. Problems whose origin basis is not dual feasible, and solves
    where the dual pass stalls, fall back to the ordinary
    [solve_incremental] path; the answer is always exact, only the pivot
    count changes. *)
val solve_dual_incremental : ?hint:int list -> problem -> state * outcome

(** Original-variable indices of the variables currently basic — feed to
    the next adjacent solve's [?hint]. *)
val basis_hint : state -> int list

(** Basis refactorizations performed on this state (also accumulated
    process-wide under the [lp.sparse.refactors] Obs counter). *)
val refactors : state -> int

(** Forrest–Tomlin updates applied to this state's bases so far (one per
    accepted basis update, across refactorizations and cold rebuilds). *)
val updates : state -> int

(** Current basis-representation nonzeros: U off-diagonals + diagonal +
    op-file entries; 0 once the state has delegated to the dense kernel.
    The fill-in figure the benches chart. *)
val fill_nnz : state -> int

(** [patch st p'] re-targets the state at a structurally identical
    problem whose rhs, objective, and bound values changed — the per-row
    coefficient pattern (canonical CSR order), relations, and bound shape
    must match exactly. On success the factorized basis and every
    appended cut survive; the solve resumes by dual simplex from the
    previous basis with a primal polish. Returns [None] only on a
    structural mismatch (including delegated states whose dense tableau
    is no longer dual-layout); numerical trouble falls back to the
    internal cold-rebuild chain instead. [Sne_session] leans on this to
    keep one kernel state resident across weight-only resolves. *)
val patch : state -> problem -> outcome option

(**/**)

(* Test hooks: refactorization-arena instrumentation (see test/test_lp).
   [refactor_arena_grows] is the total reallocation count across the
   per-domain Markowitz scratch slots; a zero delta between two solves
   proves arena reuse. *)
val refactor_arena_grows : unit -> int
val refactor_arena_capacity : unit -> int
