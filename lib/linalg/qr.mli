(** Householder QR factorisation. *)

type t

val factor : Mat.t -> t
(** Factor an [m×n] matrix with [m ≥ n]. *)

val q_thin : t -> Mat.t
(** The thin orthogonal factor ([m×n]). *)

val r : t -> Mat.t
(** The upper-triangular factor ([n×n]). *)

val solve_ls : t -> Vec.t -> Vec.t
(** Least-squares solve: minimise [‖A x − b‖₂]. Raises
    [Invalid_argument] if [R] has a zero diagonal (rank deficient). *)

val rank : ?tol:float -> t -> int
(** Numerical rank from the [R] diagonal. *)

(** Orthonormal column accumulator: two passes of modified Gram–Schmidt
    against every kept column, dropping a candidate whose norm falls
    below [1e-10] of its input norm. The store has a fixed capacity
    set at creation. *)
module Mgs : sig
  type t

  val create : int -> t
  (** An empty accumulator holding at most the given number of columns. *)

  val push : t -> Vec.t -> bool
  (** Orthonormalise a copy of the vector against the kept columns and
      keep it; [false] if it was dropped as dependent or the store is
      full. The argument is not modified. *)

  val count : t -> int
  val full : t -> bool

  val col : t -> int -> Vec.t
  (** The [k]-th kept column (shared, not copied). *)

  val columns : t -> Vec.t array
  (** The kept columns in acceptance order. *)
end

val orthonormalize : Mat.t -> Mat.t * int
(** [orthonormalize a] returns a matrix with orthonormal columns
    spanning the numerically independent columns of [a] (through
    {!Mgs}), together with its column count (the numerical rank). *)
