(** The symmetric factorisation [G = M J Mᵀ] (paper eq. (15)) with
    [J = diag(±1)], as operators.

    All operators act in the original coordinates; any internal
    fill-reducing permutation is hidden. Positive semi-definite inputs
    that factor cleanly give [J = I] ([definite = true]) — the provably
    stable/passive SyMPVL path. {!Pencil} is the one place that builds
    these: sparse supernodal LDLᵀ first, dense Bunch–Kaufman on
    breakdown. *)

type t = {
  n : int;
  j : float array;  (** Diagonal of [J], entries ±1. *)
  definite : bool;  (** [J = I]. *)
  apply_m_inv : Linalg.Vec.t -> Linalg.Vec.t;  (** [M⁻¹ x]. *)
  apply_mt_inv : Linalg.Vec.t -> Linalg.Vec.t;  (** [M⁻ᵀ x]. *)
  solve : Linalg.Vec.t -> Linalg.Vec.t;
      (** [G⁻¹ b = M⁻ᵀ J⁻¹ M⁻¹ b] (used by the moment checker). *)
  kind : [ `Supernodal | `Dense ];
      (** Which kernel factored [G]. *)
}

exception Singular of int
(** The matrix is numerically singular — apply a frequency shift
    (paper eq. (26)) and retry. *)

val of_supernodal : int -> int array -> Sparse.Supernodal.Real.t -> t
(** [of_supernodal n perm fac] wraps a supernodal factorisation of
    [P A Pᵀ] (rows of [perm] list old indices in new order) into
    operators acting in the original coordinates: [M = Pᵀ L √|D|],
    [J = sign D]. *)

val of_dense : Linalg.Mat.t -> t
(** Dense Bunch–Kaufman path (any symmetric nonsingular input): the
    fallback for sparse pivot breakdown and the small-n oracle. Raises
    {!Singular} when the matrix is singular. *)
