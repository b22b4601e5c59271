(** Minimum-degree fill-reducing ordering.

    Symbolically eliminates one vertex of minimum degree at a time,
    replacing its neighbourhood by a clique — the greedy heuristic
    behind AMD/MMD. Unlike {!Rcm}, which minimises the {e envelope}
    (profile) around the diagonal, minimum degree targets
    total factor fill, which is the right objective for genuinely
    two-dimensional patterns (grids, meshes, package models) where
    any banded ordering must fill the whole band.

    Use {!Etree.predicted_nnz} to compare the two on a concrete
    pattern — [symor analyze] does exactly that and reports the
    recommendation as [STR006]. *)

val order : Csr.t -> int array
(** [order a] returns [perm] with [perm.(new_index) = old_index]
    (the {!Csr.permute_sym} convention). The structure is
    symmetrised; disconnected patterns are fine. Guarantee: the
    {!Etree.predicted_nnz} of the returned ordering never exceeds
    the natural order's — when the greedy elimination loses to
    natural (possible on tiny or already-optimal patterns), the
    identity permutation is returned instead.

    Ties are broken deterministically. Two implementations sit behind
    this entry point: up to 1024 unknowns the exact greedy
    minimum-degree (O(n²) selection, smallest-index tie-break — the
    fill reference [symor analyze] reports); beyond that the
    quotient-graph approximate minimum degree ({!order_approx}). *)

val order_approx : Csr.t -> int array
(** Approximate minimum degree (Amestoy–Davis–Duff) on a quotient
    graph: eliminated pivots become hyperedge {e elements}, external
    degrees are maintained by the AMD upper bound
    [|A_i∖Lp| + |Lp∖i| + Σ_e |Le∖Lp|] instead of exact set unions,
    fully covered elements are absorbed aggressively, and
    indistinguishable variables (identical edge + element lists) merge
    into supervariables ordered consecutively. Near-linear in
    [nnz(L)]; deterministic; the same never-worse-than-natural guard
    as {!order}. The factor ordering at every size
    ({!Supernodal.order}): the exact greedy costs 3–9× more on
    150–900-unknown grids for fill the tests bound within 1.5× of
    it. *)

val identity : int -> int array
(** The identity permutation (ordering disabled). *)
