(** Pluggable LP-backend signature.

    Theorem 1 turns STABLE NETWORK ENFORCEMENT into linear programming, so
    every solver in [Repro_core] ultimately calls an LP backend. Two live
    here:

    - {!Simplex.Make}: the dense two-phase simplex functorized over the
      ordered field — the exact-rational instantiation is the correctness
      oracle;
    - {!Simplex_float}: a specialized kernel on flat unboxed [float array]
      tableaus with a genuine warm-start path (dual simplex after each
      appended cut), used by the float sweeps.

    Both match [BACKEND], so [Sne_lp.Make_backend] (and anything else built
    on the cutting-plane loop) can swap them with a one-line module change.

    {2 Warm-start contract}

    [solve_incremental p] runs the full two-phase solve and returns an
    opaque solver [state] alongside the outcome. [add_constraint st c]
    appends one more constraint to the problem [st] was created from and
    re-optimizes, preferably from the previous optimal basis (the float
    kernel appends the canonicalized row with a fresh slack and runs the
    dual simplex; the generic functor re-solves from scratch, which keeps it
    honest as an oracle). Outcomes are cumulative: once [Infeasible], every
    later [add_constraint] is [Infeasible] too. [pivots st] is the total
    number of simplex pivots spent on [st] so far — the currency the
    benchmarks compare warm against cold restarts in. *)

module type BACKEND = sig
  type num
  (** The scalar type (the field the LP is over). *)

  type relation = Leq | Geq | Eq

  type constr = {
    coeffs : (int * num) list;  (** sparse: variable index, coefficient *)
    relation : relation;
    rhs : num;
    label : string;
  }

  type problem = {
    n_vars : int;
    minimize : (int * num) list;  (** sparse objective *)
    constraints : constr list;
    lower : num option array;  (** [None] = unbounded below *)
    upper : num option array;
    var_name : int -> string;
  }

  type solution = { values : num array; objective : num }
  type outcome = Optimal of solution | Infeasible | Unbounded

  (** Human-readable backend name for bench labels and error messages. *)
  val name : string

  (** Validates array lengths and variable indices; raises
      [Invalid_argument]. *)
  val make_problem :
    n_vars:int ->
    ?var_name:(int -> string) ->
    minimize:(int * num) list ->
    constraints:constr list ->
    lower:num option array ->
    upper:num option array ->
    unit ->
    problem

  (** Bound arrays putting all variables in [\[0, +inf)]. *)
  val nonneg : int -> num option array * num option array

  (** One-shot solve. *)
  val solve : problem -> outcome

  (** Opaque incremental-solver state (see the warm-start contract above). *)
  type state

  val solve_incremental : problem -> state * outcome
  val add_constraint : state -> constr -> outcome

  (** Total simplex pivots spent on this state so far. *)
  val pivots : state -> int
end
