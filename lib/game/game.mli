(** Network design games with fair (Shapley) cost sharing (Section 2 of the
    paper), functorized over the weight field.

    A game is an edge-weighted undirected graph plus one (source, target)
    pair per player; a state assigns each player a path; every established
    edge's weight is split equally among its users. Subsidies [b] reduce
    edge [a]'s shareable weight to [w_a - b_a] (the "extension of the game
    with subsidies"). All subsidy parameters below are edge-indexed arrays;
    omitting them means the unsubsidized game. *)

module Make (F : Repro_field.Field.S) : sig
  module G : module type of Repro_graph.Wgraph.Make (F)

  type spec = { graph : G.t; pairs : (int * int) array }

  val n_players : spec -> int

  (** Validates terminals; raises [Invalid_argument]. *)
  val create : graph:G.t -> pairs:(int * int) array -> spec

  (** Broadcast game: one player per non-root node, connecting to [root];
      player [i] is the i-th non-root node in node order. *)
  val broadcast : graph:G.t -> root:int -> spec

  (** The player index of a non-root node in a broadcast game. *)
  val broadcast_player : root:int -> int -> int

  (** Multicast game: one player per terminal, each connecting to [root]
      (the Section 6 generalization; the broadcast fast paths below do not
      apply to it, the general machinery does). *)
  val multicast : graph:G.t -> root:int -> terminals:int list -> spec

  (** {1 States} *)

  (** state.(i) = player i's path, as edge ids in travel order. *)
  type state = int list array

  (** Checks every strategy is a walk from its source to its target. *)
  val validate_state : spec -> state -> unit

  (** n_a(T): users per edge. *)
  val usage : spec -> state -> int array

  (** n^i_a(T) as a byte mask over edge ids (['\001'] = used), built in
      a reusable per-domain buffer: valid until the next call on the
      same domain. *)
  val own_mask : spec -> state -> int -> Bytes.t

  val no_subsidy : spec -> F.t array

  (** w_a - b_a. *)
  val net_weight : spec -> F.t array -> int -> F.t

  (** cost_i(T; b) = sum over the player's edges of (w_a - b_a)/n_a(T).
      [usage] supplies a precomputed [usage spec state] so per-round
      sweeps over all players skip the per-call usage recount. *)
  val player_cost : ?subsidy:F.t array -> ?usage:int array -> spec -> state -> int -> F.t

  (** Total weight of established edges (the authority pays the subsidized
      part, so subsidies do not change it). *)
  val social_cost : spec -> state -> F.t

  (** Rosenthal's potential sum_a (w_a - b_a) H_{n_a(T)}. *)
  val potential : ?subsidy:F.t array -> spec -> state -> F.t

  (** {1 Best responses and equilibria} *)

  (** Cheapest deviation of player [i]: Dijkstra where edge [a] costs
      (w_a - b_a)/(n_a(T) + 1 - n^i_a(T)). Returns (cost, path). [usage]
      as in {!player_cost}. *)
  val best_response :
    ?subsidy:F.t array -> ?usage:int array -> spec -> state -> int -> F.t * int list

  (** Edge prices of one separation sweep, shared by all players:
      [shared.(a)] = (w_a - b_a)/(n_a(T) + 1) and [own.(a)] =
      (w_a - b_a)/n_a(T) (zero where n_a(T) = 0), computed with the same
      field operations as {!best_response} and {!player_cost}. *)
  type prices = { shared : F.t array; own : F.t array }

  (** [usage] must be [usage spec state]. *)
  val sweep_prices : ?subsidy:F.t array -> spec -> usage:int array -> prices

  (** [Some (cost, path)] exactly when player [i]'s best response is
      strictly cheaper than her current cost ([F.lt]); cost and path are
      then those of {!best_response}. The Dijkstra stops at [t_i] or as
      soon as the settled key reaches her current cost, whichever comes
      first. Raises [Invalid_argument] when it exhausts [s_i]'s component
      without settling [t_i]. *)
  val improving_response : prices -> spec -> state -> int -> (F.t * int list) option

  (** Most profitable unilateral deviation, if any:
      (player, current cost, deviation cost, deviation path). *)
  val worst_violation :
    ?subsidy:F.t array -> spec -> state -> (int * F.t * F.t * int list) option

  val is_equilibrium : ?subsidy:F.t array -> spec -> state -> bool

  (** Largest unilateral gain available to any player (0 at equilibria). *)
  val additive_instability : ?subsidy:F.t array -> spec -> state -> F.t

  (** Smallest alpha with cost_i <= alpha * best response for all i;
      [None] when a player's best response is free but her cost is not. *)
  val multiplicative_instability : ?subsidy:F.t array -> spec -> state -> F.t option

  val is_epsilon_equilibrium : ?subsidy:F.t array -> spec -> state -> epsilon:F.t -> bool

  (** {1 Best-response dynamics} *)

  module Dynamics : sig
    type outcome = {
      state : state;
      rounds : int; (** completed passes over the players *)
      moves : int;
      converged : bool;
    }

    (** Like {!best_response_dynamics}, also returning the Rosenthal
        potential after every round (starting value first) — the strictly
        decreasing sequence that proves termination. *)
    val trace :
      ?subsidy:F.t array -> ?max_rounds:int -> spec -> state -> outcome * F.t list

    (** Round-robin best responses; terminates by potential descent
        ([max_rounds] only guards float-tolerance livelock). *)
    val best_response_dynamics :
      ?subsidy:F.t array -> ?max_rounds:int -> spec -> state -> outcome
  end

  (** {1 Broadcast fast paths (Lemma 2)} *)

  module Broadcast : sig
    (** The state where every player walks her tree path to the root. *)
    val state_of_tree : spec -> root:int -> G.Tree.t -> state

    (** Cumulative root-path shares: [s1.(v)] with denominators n_a (v's
        player's cost), [s2.(v)] with n_a + 1 (an outsider's share after
        joining). *)
    val path_shares : ?subsidy:F.t array -> spec -> G.Tree.t -> F.t array * F.t array

    (** Slack of one Lemma 2 / LP (3) constraint: deviation cost minus
        current cost for the player at [u] switching to non-tree edge
        [(u, v)] then v's tree path. *)
    val deviation_slack :
      ?subsidy:F.t array ->
      spec ->
      G.Tree.t ->
      shares:F.t array * F.t array ->
      u:int ->
      edge_id:int ->
      v:int ->
      F.t

    (** Most violated Lemma 2 constraint, if any: (u, edge id, v, slack).
        By Lemma 2 this is a complete equilibrium check for spanning trees
        of broadcast games. *)
    val tree_violation :
      ?subsidy:F.t array -> spec -> G.Tree.t -> (int * int * int * F.t) option

    val is_tree_equilibrium : ?subsidy:F.t array -> spec -> G.Tree.t -> bool
  end

  (** {1 Exact optima on small instances (exponential enumeration)} *)

  module Exact : sig
    type landscape = {
      mst_weight : F.t;
      best_equilibrium : (F.t * int list) option; (** weight, tree edges *)
      worst_equilibrium : (F.t * int list) option;
      n_trees : int;
      n_equilibria : int;
    }

    (** Scan every spanning tree of a broadcast game (no subsidies); by the
        Section 2 cycle argument this loses no equilibrium weight. *)
    val equilibrium_landscape : graph:G.t -> root:int -> landscape

    (** Best-equilibrium weight over MST weight. *)
    val price_of_stability : graph:G.t -> root:int -> F.t option

    val price_of_anarchy_over_trees : graph:G.t -> root:int -> F.t option

    (** Bounded DFS enumeration of simple paths (shared with the state
        landscape below and the coalition module). *)
    val simple_paths : G.t -> src:int -> dst:int -> limit:int -> int list list

    type state_landscape = {
      optimum : F.t; (** cheapest social cost over all states *)
      best_eq : (F.t * state) option;
      worst_eq : (F.t * state) option;
      n_states : int;
      n_eq : int;
    }

    (** Exhaustive landscape of a general game (multicast or arbitrary
        pairs) over the product of the players' simple paths. Raises
        [Invalid_argument] beyond [max_states] or on a disconnected
        player. *)
    val state_landscape : ?max_states:int -> spec -> state_landscape
  end
end

module Float_game : module type of Make (Repro_field.Field.Float_field)
module Rat_game : module type of Make (Repro_field.Field.Rat)
