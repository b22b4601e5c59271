(** Modified nodal analysis (MNA) assembly.

    Builds the symmetric matrix pencil [(G, C)] and terminal incidence
    [B] of the paper's eq. (3), either in the general RLC form (node
    voltages plus inductor currents as unknowns) or in the specialised
    positive-semi-definite forms for RC, RL and LC circuits
    (Section 2.2). The multi-port transfer function is

      [Z(s) = Bᵀ (G + sC)⁻¹ B]              (general RLC, RC)
      [Z(s) = s · Bᵀ (G + sC)⁻¹ B]          (RL, eq. (7))
      [Z(s) = s · Bᵀ (G + s²C)⁻¹ B]         (LC, eq. (9))

    The [gain] field records which of these applies. *)

type gain =
  | Unit  (** [Z = BᵀK⁻¹B] directly. *)
  | Times_s  (** Multiply by [s] after evaluation (RL and LC forms). *)

type variable =
  | S  (** Pencil in [s]. *)
  | S_squared  (** Pencil in [σ = s²] (LC form, eq. (9)). *)

type t = {
  n : int;  (** Pencil dimension. *)
  n_nodes : int;  (** Leading node-voltage unknowns. *)
  g : Sparse.Csr.t;  (** Symmetric [G]. *)
  c : Sparse.Csr.t;  (** Symmetric [C]. *)
  b : Linalg.Mat.t;  (** [n × p] terminal incidence. *)
  port_names : string array;
  gain : gain;
  variable : variable;
  spd : bool;
      (** True when both [G] and [C] are positive semi-definite by
          construction (RC/RL/LC forms) — the provably stable/passive
          path of Section 5. *)
}

val assemble : Netlist.t -> t
(** General RLC form (eq. (3)): unknowns are node voltages followed by
    inductor currents; [G], [C] symmetric indefinite. Requires a
    linear RLC netlist with at least one port; raises
    {!Diagnostic.User_error} otherwise, naming the first offending
    element with its source line when available. *)

val assemble_rc : Netlist.t -> t
(** RC form: [G = Aᵍᵀ𝒢Aᵍ], [C = Aᶜᵀ𝒞Aᶜ], both PSD. Rejects netlists
    containing inductors. *)

val assemble_rl : Netlist.t -> t
(** RL form (eq. (7)): [G = Aˡᵀℒ⁻¹Aˡ], [C = Aᵍᵀ𝒢Aᵍ], both PSD;
    [Z(s) = s·Bᵀ(G+sC)⁻¹B]. Rejects capacitors. *)

val assemble_lc : Netlist.t -> t
(** LC form (eq. (9)): [G = Aˡᵀℒ⁻¹Aˡ], [C = Aᶜᵀ𝒞Aᶜ], both PSD, pencil
    in [σ = s²]; [Z(s) = s·Bᵀ(G+s²C)⁻¹B]. Rejects resistors. *)

val auto : Netlist.t -> t
(** Dispatch on {!Netlist.classify}: the specialised PSD form when the
    topology allows it, the general form otherwise. *)

val pencil_pattern : t -> Sparse.Csr.t
(** The union sparsity pattern of [G] and [C] (all values 1): the
    structure of [G + sC] for generic [s ≠ 0], exactly as stamped —
    entries that happen to cancel numerically are still structural
    nonzeros. This is what the structural analyzer
    ([Analysis.Struct_rules], [symor analyze]) certifies solvability
    and predicts factorisation fill on. *)

val unknown_label : t -> int -> string
(** Human-readable label of pencil row/column [row]:
    ["node-voltage unknown k"] (1-based MNA node index) for the
    leading [n_nodes] rows, ["inductor-current unknown k"] for the
    trailing ones. Use [Analysis.Struct_rules] when the netlist is
    available — it resolves actual node names and source lines. *)

val inductance_matrix : Netlist.t -> Linalg.Mat.t
(** The (dense) inductance matrix [ℒ] including mutual couplings, in
    {!Netlist.inductors} order. Symmetric positive definite for
    [|k| < 1]. *)

val observe_inductor_current : Netlist.t -> t -> string -> Linalg.Vec.t
(** [observe_inductor_current nl mna l_name] is a vector [w] of length
    [mna.n] such that [wᵀ x] reproduces the current through the named
    inductor:

    - general RLC form: the canonical basis vector selecting that
      inductor-current unknown;
    - LC form: [Aˡᵀ ℒ⁻¹ b] with [b] selecting the inductor — the
      column the paper appends to [B] for the PEEC two-port output
      ([l] in Section 7.1).

    Raises {!Diagnostic.User_error} for the RC/RL forms. *)

val append_output_column : t -> Linalg.Vec.t -> string -> t
(** Widen [B] with an extra observation column (generalised port). *)

(** {1 Second-order (susceptance) form}

    Eliminating the inductor currents from the general RLC form yields
    the quadratic (second-order) pencil of Freund's SPRIM line of
    work:

      [(s²M + sD + K)·v = s·B·u],   [Z(s) = s·Bᵀ(s²M + sD + K)⁻¹B]

    with [M = Aᶜᵀ𝒞Aᶜ] (nodal capacitance), [D = Aᵍᵀ𝒢Aᵍ] (nodal
    conductance) and [K = Aˡᵀℒ⁻¹Aˡ] (nodal inductive susceptance,
    mutual k-couplings folded into [ℒ]). All three blocks are
    symmetric PSD for positive element values, which is what the
    structure-preserving [`Sprim] engine and RLCk re-synthesis rely
    on. *)

type second_order = {
  so_n : int;  (** Node count — dimension of the quadratic pencil. *)
  so_ni : int;  (** Inductor branches eliminated into [so_k]. *)
  so_m : Sparse.Csr.t;  (** [M] — nodal capacitance, symmetric PSD. *)
  so_d : Sparse.Csr.t;  (** [D] — nodal conductance, symmetric PSD. *)
  so_k : Sparse.Csr.t;  (** [K] — nodal susceptance [Aˡᵀℒ⁻¹Aˡ]. *)
  so_b : Linalg.Mat.t;  (** [so_n × p] nodal terminal incidence. *)
  so_ports : string array;
  so_gain : gain;  (** Always [Times_s] — the honest transfer gain. *)
  so_variable : variable;  (** Always [S]: quadratic pencil in [s]. *)
}

val assemble_second_order : Netlist.t -> second_order
(** Susceptance-form assembly. Requires a linear RLC netlist with
    ports and well-formed couplings (raises {!Diagnostic.User_error}
    otherwise). Inductor-free netlists get [K = 0]. The [ℒ⁻¹]
    elimination uses a dense Cholesky of [ℒ] — intended for the small
    and mid-size regime; the 10⁴⁺-inductor PEEC workloads should stay
    on {!assemble}, whose [−ℒ] block is stamped sparsely. *)

val linearize : second_order -> t
(** Companion-form linearisation back to a first-order pencil, with
    state [x = (v, s·M·v)]:

      [G' = [[K, 0]; [0, I]]],  [C' = [[D, I]; [−M, 0]]]

    The pencil [G' + sC'] is nonsingular exactly where the quadratic
    pencil is (even for singular [M]), and the transfer function
    matches {!assemble} on the same netlist exactly (the qcheck suite
    pins this). Metadata: [gain = Times_s], [variable = S],
    [n_nodes = so_n].

    {b The companion pencil is nonsymmetric} (the symmetric companion
    [[[K,0];[0,−M]] + s[[D,M];[M,0]]] is singular for every [s]
    whenever a node carries no capacitance). Evaluate it with dense
    complex solves; do not feed it to the symmetric LDLᵀ AC /
    reduction fast paths, which assume [G = Gᵀ], [C = Cᵀ]. *)

type second_order_stats = {
  inductor_loops : int;
      (** Independent cycles in the inductor subgraph (ground
          included) — each closes an inductor loop that the
          susceptance form resolves through [ℒ⁻¹]. *)
  coupling_density : float;
      (** K cards over inductor pairs: [mutuals / (ni·(ni−1)/2)]. *)
  chosen_form : string;
      (** Human-readable name of the MNA form {!auto} would pick. *)
}

val second_order_stats : Netlist.t -> second_order_stats
(** Second-order structure report used by [symor info] / [symor
    analyze]. *)
