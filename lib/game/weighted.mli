(** Weighted network design games (Section 6 open problem): player [i] has
    demand d_i and pays d_i / D_a of each used edge, D_a being the total
    demand on it. No Rosenthal potential exists, so equilibria may not —
    the [converged] flag of the dynamics is a real outcome — and Lemma 2's
    one-non-tree-edge check is only {e sound}, not complete (see
    {!Broadcast.tree_violation}). Unit demands recover {!Game.Make}
    exactly. *)

module Make (F : Repro_field.Field.S) : sig
  module Base : module type of Game.Make (F)
  module G : module type of Base.G

  type spec = { base : Base.spec; demand : F.t array }

  (** Raises [Invalid_argument] on arity mismatch or non-positive
      demands. *)
  val create : graph:G.t -> pairs:(int * int) array -> demand:F.t array -> spec

  (** Broadcast with per-node demands. *)
  val broadcast : graph:G.t -> root:int -> demand_of:(int -> F.t) -> spec

  val n_players : spec -> int
  val graph : spec -> G.t

  (** D_a(T): total demand per edge. *)
  val demand_usage : spec -> Base.state -> F.t array

  val no_subsidy : spec -> F.t array
  val net_weight : spec -> F.t array -> int -> F.t

  (** cost_i(T; b) = sum_a (w_a - b_a) d_i / D_a(T). *)
  val player_cost : ?subsidy:F.t array -> spec -> Base.state -> int -> F.t

  val social_cost : spec -> Base.state -> F.t

  (** Cheapest deviation pricing edge [a] at
      (w_a - b_a) d_i / (D_a - n^i_a d_i + d_i). *)
  val best_response : ?subsidy:F.t array -> spec -> Base.state -> int -> F.t * int list

  (** One sweep's shared inputs: net weights w_a - b_a and the demand
      usage [du] (which must be [demand_usage spec state]). *)
  type prices = { net : F.t array; du : F.t array }

  val sweep_prices : ?subsidy:F.t array -> spec -> du:F.t array -> prices

  (** [Some (cost, path)] exactly when player [i]'s best response is
      strictly cheaper than her current cost ([F.lt]), with
      {!best_response}'s cost and path; the Dijkstra stops at her target
      or at her current cost. Raises [Invalid_argument] when it exhausts
      her source's component without settling the target. *)
  val improving_response : prices -> spec -> Base.state -> int -> (F.t * int list) option

  val worst_violation :
    ?subsidy:F.t array -> spec -> Base.state -> (int * F.t * F.t * int list) option

  val is_equilibrium : ?subsidy:F.t array -> spec -> Base.state -> bool

  (** Round-robin dynamics; may legitimately fail to converge. *)
  val best_response_dynamics :
    ?subsidy:F.t array -> ?max_rounds:int -> spec -> Base.state -> Base.Dynamics.outcome

  module Broadcast : sig
    val state_of_tree : spec -> root:int -> G.Tree.t -> Base.state

    (** Total demand below each tree edge (weighted [Tree.usage]). *)
    val tree_demand : spec -> G.Tree.t -> int -> F.t

    (** The one-non-tree-edge deviation family. {e Necessary but not
        sufficient} for weighted games: a reported violation disproves
        equilibrium, a clean pass must be confirmed with
        [is_equilibrium] — the tests pin a witness where a two-edge
        deviation binds. *)
    val tree_violation :
      ?subsidy:F.t array -> spec -> root:int -> G.Tree.t -> (int * int * int * F.t) option

    val is_tree_equilibrium : ?subsidy:F.t array -> spec -> root:int -> G.Tree.t -> bool
  end
end

module Float_weighted : module type of Make (Repro_field.Field.Float_field)
module Rat_weighted : module type of Make (Repro_field.Field.Rat)
