(** The one Krylov-projection kernel behind PRIMA ({!Arnoldi}), its
    multipoint variant and SPRIM ({!Sprim}): an orthonormal
    block-Krylov basis builder over cached factorisations, a sparse
    congruence [WᵀMW], and the projected-descriptor model both
    engines return.

    Precondition: the pencil is symmetric ([G = Gᵀ], [C = Cᵀ]), as
    every {!Circuit.Mna.t} is. The congruence computes only the upper
    triangle and mirrors it, so reduced matrices are exactly
    symmetric by construction. *)

type model = {
  ghat : Linalg.Mat.t;  (** [WᵀGW]. *)
  chat : Linalg.Mat.t;  (** [WᵀCW]. *)
  bhat : Linalg.Mat.t;  (** [WᵀB]. *)
  order : int;  (** Columns of [W]. *)
  p : int;
  shift : float;  (** Expansion point the basis was built about. *)
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
}
(** Reduced descriptor [Ẑ = B̂ᵀ(Ĝ + var·Ĉ)⁻¹B̂] in the physical pencil
    variable; the shift only chose the Krylov space. *)

val basis : ?cap:int -> Circuit.Mna.t -> (Factor.t * int) list -> Linalg.Vec.t array
(** Orthonormal columns spanning, for each [(factor, steps)] point in
    turn, [steps] blocks of the block Krylov space of
    [((G + s₀C)⁻¹C, (G + s₀C)⁻¹B)], where [factor] factors
    [G + s₀C] (the first block, [K⁻¹B], is always built). Columns are orthonormalised against everything kept so
    far with {!Linalg.Qr.Mgs}; a dropped column ends its chain, and a
    point stops early when its chains are exhausted. Building stops
    once [cap] columns are kept (default: no cap beyond the
    [p] columns per block requested). *)

val congruence : Sparse.Csr.t -> Linalg.Vec.t array -> Linalg.Mat.t
(** [congruence m w] is [WᵀMW] for symmetric sparse [M] and the
    columns [w] of [W]: one sparse mat-vec per column, upper triangle
    computed and mirrored. *)

val project : shift:float -> Circuit.Mna.t -> Linalg.Vec.t array -> model
(** Congruence projection of the pencil and port matrix onto the
    columns. *)

val eval : model -> Complex.t -> Linalg.Cmat.t
(** Evaluate [B̂ᵀ(Ĝ + var·Ĉ)⁻¹B̂] at physical [s] (with the same
    variable/gain conventions as {!Model.eval}). *)

val poles : model -> Complex.t array
(** Physical poles of the reduced pencil ([[||]] when [Ĉ] is
    singular). *)
