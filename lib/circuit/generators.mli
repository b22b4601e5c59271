(** Synthetic circuit generators.

    These stand in for the paper's proprietary test circuits (see
    DESIGN.md §3): a PEEC-style LC structure, a multi-pin package
    model, and an extracted crosstalk RC interconnect, plus smaller
    parametric families used by tests and ablations. All generators
    are deterministic (any randomness flows through an explicit
    seed). *)

val rc_line :
  ?r_per_section:float ->
  ?c_per_section:float ->
  ?output_port:bool ->
  sections:int ->
  unit ->
  Netlist.t
(** Uniform RC ladder; port [in] at the driving end and, when
    [output_port] (default true), port [out] at the far end.
    Defaults: 1 Ω / 1 pF per section. *)

val rc_tree :
  ?r_per_segment:float -> ?c_per_segment:float -> depth:int -> unit -> Netlist.t
(** Balanced binary RC tree of the given depth; port [root] at the
    root, port [leaf] at the left-most leaf. A classic clock-tree
    shape with multiple time constants. *)

val coupled_rc_bus :
  ?r_per_section:float ->
  ?c_ground:float ->
  ?c_coupling:float ->
  ?coupling_span:int ->
  ?terminate:float ->
  wires:int ->
  sections:int ->
  unit ->
  Netlist.t
(** The Fig.-5-class workload: [wires] parallel RC lines, each
    [sections] long, with dense wire-to-wire coupling capacitors at
    every section between every pair of wires whose section offset is
    at most [coupling_span] (default 1, i.e. same and adjacent
    sections). One port at the near end of every wire; [terminate]
    adds a load resistor of that value from the far end of every wire
    to ground (a nonsingular conductance matrix: no expansion shift
    needed). Defaults: 10 Ω, 5 fF ground, 25 fF coupling. *)

val package_model :
  ?sections:int ->
  ?l_section:float ->
  ?c_section:float ->
  ?r_section:float ->
  ?k_neighbour:float ->
  ?c_coupling:float ->
  ?pins:int ->
  ?signal_pins:int ->
  unit ->
  Netlist.t
(** The Fig.-3/4-class workload: [pins] package pins, each an RLC
    ladder ([sections] series R–L segments with shunt C), with mutual
    inductance [k_neighbour] and coupling capacitance [c_coupling]
    between neighbouring pins. The first [signal_pins] pins get two
    ports each: [P<i>ext] (board side) and [P<i>int] (die side).
    Defaults: 64 pins, 8 signal pins, 10 sections, 1 nH / 0.2 pF /
    0.05 Ω per section, k = 0.35, 0.1 pF coupling — resonances in the
    0.1–10 GHz band like the paper's package. *)

val peec_mesh :
  ?l_segment:float ->
  ?c_node:float ->
  ?k0:float ->
  ?chord_every:int ->
  segments:int ->
  unit ->
  Netlist.t * string
(** The Fig.-1/2-class workload: a closed ring of [segments] inductive
    conductor segments (plus stiffening chords every [chord_every]
    segments, default 7) with a capacitor to ground at every node and
    distance-decaying mutual coupling [k(d) = k0 / d^1.5] between all
    segment pairs — a PEEC-flavoured dense [ℒ]. No node has a DC path
    to ground, so the nodal [G = AˡᵀL⁻¹Aˡ] is singular exactly as in
    the paper (frequency shift required). Port [drive] sits at node 1;
    the returned string names the output inductor whose current is the
    paper's second observation column. Defaults: 1 nH segments, 1 pF
    nodes, k0 = 0.12. *)

val peec_partial :
  ?r_segment:float ->
  ?l_segment:float ->
  ?c_node:float ->
  ?k0:float ->
  ?k_cross:float ->
  ?coupling_window:int ->
  ?r_term:float ->
  ?ports:int ->
  conductors:int ->
  segments:int ->
  unit ->
  Netlist.t
(** Partial-inductance RLCk bus, the MORCIC regime (10⁴–10⁵ coupled
    partial inductances): [conductors] parallel conductors of
    [segments] series R–L segments with shunt C, every partial
    inductance k-coupled to the next [coupling_window] segments of its
    own conductor ([k(d) = k0/d^1.5]) and to the adjacent conductor
    within the same window ([k(o) = k_cross/(1+|o|)^1.5]) — a sparse,
    strictly diagonally dominant ℒ (positive definite by
    construction). Far ends are terminated with [r_term] to ground, so
    the general-form [G] is nonsingular at DC. Ports [drv<i>] at the
    near end of the first [ports] conductors (default
    [min conductors 4]). Defaults: 0.05 Ω / 1 nH / 0.2 pF per segment,
    k0 = 0.08, k_cross = 0.04, window 4 — total element count
    ≈ [conductors·segments·(3 + 3·coupling_window + 1)]. *)

val rlc_line :
  ?r_per_section:float ->
  ?l_per_section:float ->
  ?c_per_section:float ->
  ?r_load:float ->
  sections:int ->
  unit ->
  Netlist.t
(** Lossy LC transmission-line ladder (general RLC form exercises the
    indefinite-[J] path). Ports at both ends; [r_load] terminates the
    far end to ground (making [G] nonsingular). Defaults:
    0.1 Ω / 1 nH / 1 pF. *)

val rl_ladder :
  ?r_per_section:float ->
  ?l_per_section:float ->
  ?shorted_end:bool ->
  sections:int ->
  unit ->
  Netlist.t
(** RL ladder (the paper's RL special case). Port at the near end;
    [shorted_end] adds an inductive short to ground at the far end,
    which makes the RL-form [G] nonsingular (unshifted expansion,
    provable stability/passivity). *)

val rc_grid :
  ?r_per_edge:float -> ?c_per_node:float -> ?pitch_pads:int -> rows:int -> cols:int ->
  unit -> Netlist.t
(** Power-grid-style 2D RC mesh: resistors along the grid edges, a
    grounded capacitor at every node, and a port every [pitch_pads]
    nodes along the boundary (default 4) — a workload with genuinely
    two-dimensional sparsity (exercises AMD ordering and fill). The
    corner node is tied to ground through [r_per_edge] so the grid has
    a DC path. Defaults: 2 Ω edges, 10 fF nodes. *)

val random_rc :
  ?ports:int -> nodes:int -> extra_edges:int -> seed:int -> unit -> Netlist.t
(** Random connected RC network: a random resistor spanning tree over
    [nodes] nodes plus [extra_edges] random resistors, a grounded
    capacitor at every node and random coupling capacitors. [ports]
    (default 2) random distinct port nodes. Deterministic in [seed];
    used by property tests. *)
