(** Shared pencil-solve context: one symbolic phase, one shift policy.

    Every engine in the pipeline — SyMPVL/MPVL Lanczos, PRIMA Arnoldi,
    AWE moments, exact moment checks, AC sweeps, transient integration
    — is a loop over solves with the shifted pencil [K(s₀) = G + s₀C].
    A [Pencil.t] is built {e once} from [(G, C, B)] and owns everything
    those loops share:

    - the structural pre-flight (STR001: a pattern with structural
      rank < n is singular for every element value and shift);
    - the AMD + etree-postorder ordering of the merged [G]/[C]
      pattern ({!Sparse.Supernodal.order});
    - the shared supernodal symbolic phase (both matrices
      pre-scattered into panel slots), so each factorisation — real
      at any shift, or complex at any frequency — is a pure numeric
      phase ([factor.numeric] span);
    - the RCM-ordered retry: LDLᵀ without pivoting can break down on
      an AMD elimination order where RCM's succeeds, so a pivot
      breakdown re-runs the same supernodal kernel in RCM + postorder
      order ([factor.fallback_rcm] counter) before a real
      factorisation surrenders to dense Bunch–Kaufman;
    - a memo table of real factorisations keyed by shift, so a moment
      check after a reduction at the same expansion point costs only
      triangular solves ([pencil.cache_hit]/[pencil.cache_miss]
      counters; [factor.symbolic]/[factor.numeric] spans).

    {!with_auto_shift} is the {e only} implementation of the paper's
    eq. (26) singular→shift retry; [Factor.Singular] is the one
    exception a singular pencil raises, and elsewhere it is only
    reported (certification skips the affected check), never
    retried. *)

type t

val create : Circuit.Mna.t -> t
(** Build the context from an assembled pencil: structural pre-flight
    (raises {!Circuit.Diagnostic.User_error} with an [STR001] message
    on structural singularity), ordering of the merged pattern, the
    symbolic phase, and the per-port sparse patterns of the permuted
    [B]. *)

val of_matrices :
  ?variable:Circuit.Mna.variable ->
  ?b:Linalg.Mat.t ->
  Sparse.Csr.t ->
  Sparse.Csr.t ->
  t
(** Context over a raw symmetric pair [(G, C)] — the transient
    engine's stamped system, say — without the MNA-level structural
    pre-flight. [variable] (default [S]) only affects
    {!with_auto_shift}'s band heuristic. *)

(** {1 Accessors} *)

val n : t -> int

val p : t -> int
(** Number of ports ([0] when built without [B]). *)

val perm : t -> int array
(** Fill-reducing permutation: new index → old index. *)

val port_idx : t -> int array array
(** Per port, the permuted rows carrying a nonzero of [B] (ascending).
    Do not mutate. *)

val port_val : t -> float array array
(** The matching [B] entries. Do not mutate. *)

val variable : t -> Circuit.Mna.variable

val g : t -> Sparse.Csr.t
(** The original (unpermuted) [G]. *)

val c : t -> Sparse.Csr.t
(** The original (unpermuted) [C]. *)

(** {1 Shift policy (paper eq. (26))} *)

val auto_shift : Circuit.Mna.t -> float
(** Fallback heuristic shift [max |diag G| / max |diag C|] when no
    band is known — the right order of magnitude to make [G + s₀C]
    well conditioned, though usually far from the band of interest
    (prefer passing [band]). *)

val band_shift : Circuit.Mna.t -> float * float -> float
(** The geometric mid-band expansion point [2π√(f_lo·f_hi)] in the
    pencil variable (squared for the LC [σ = s²] form). *)

val with_auto_shift :
  ?shift:float -> ?band:float * float -> t -> (float -> Factor.t -> 'a) -> 'a
(** [with_auto_shift t f] runs [f s₀ fac] with the resolved expansion
    shift and its factorisation. With an explicit [shift] there is no
    retry: {!Factor.Singular} propagates. Otherwise the pencil is
    factored at [0]; if singular, the shift falls back to
    {!band_shift} (when [band] is given) or {!auto_shift} and the
    factorisation is retried once — the single implementation of the
    retry policy shared by every engine. *)

(** {1 Real factorisations} *)

val factor : t -> shift:float -> Factor.t
(** Factor [G + s₀C = M J Mᵀ] (supernodal LDLᵀ against the shared
    symbolic phase, then the RCM-ordered retry; dense Bunch–Kaufman
    fallback when both break down, recorded as the
    [factor.fallback_dense] counter). Results — including singular
    outcomes — are memoized by shift: a repeat call is a cache hit
    returning the identical factor. Raises {!Factor.Singular} when
    the dense factorisation fails too. *)

val factor_with :
  t -> shift:float -> extra:(int * int * float) array -> Factor.t
(** Like {!factor} but accumulates [extra] [(row, col, v)] entries
    (original coordinates, either triangle) onto the assembled matrix
    before factoring — the transient engine's Newton-Jacobian stamps.
    Never cached. Positions must have been declared with {!reserve}
    unless they fall inside the symbolic pattern already. Sparse
    path only (no retry, no dense fallback): raises {!Factor.Singular}
    on breakdown. *)

val reserve : t -> (int * int) array -> unit
(** Grow the shared symbolic phase so the given (original-coordinate)
    positions can be stamped by {!factor_with} — a pattern-augmented
    symbolic rebuild under the same ordering. The added slots are
    structural zeros, so subsequent stamp-free factorisations are
    numerically unchanged. *)

(** {1 Complex pencil solves} *)

type cfactor
(** A factored complex pencil [(G + sC)] in permuted coordinates —
    supernodal split-complex, AMD- or (after a breakdown) RCM-ordered
    inside. *)

val factor_complex : ?pivot_tol:float -> t -> Complex.t -> cfactor
(** Numeric phase of [G + sC] at a complex point against the shared
    symbolic phase — the split-complex AC production kernel, with the
    same RCM-ordered retry as {!factor}. The returned factor lives in
    {e permuted} coordinates; combine with {!perm} / {!port_idx} and
    {!csolve_split} (as [Simulate.Ac] does) or use {!solve_complex}.
    Raises {!Factor.Singular} when both orderings break down — there
    is no dense complex fallback. *)

val csolve_split : cfactor -> float array -> float array -> unit
(** [csolve_split fac re im] solves [(G + sC) x = b] in place on the
    split (permuted-coordinate) right-hand side. *)

val solve_complex :
  t -> Complex.t -> float array -> float array -> float array * float array
(** [solve_complex t s b_re b_im] solves [(G + sC) x = b] in original
    coordinates, returning [(x_re, x_im)]. One factorisation per call
    — for repeated solves at one frequency, use {!factor_complex}. *)
