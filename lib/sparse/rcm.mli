(** Reverse Cuthill–McKee fill-reducing ordering.

    Produces a permutation that clusters a sparse symmetric matrix
    around its diagonal, shrinking its envelope. [Pencil] uses it,
    postordered, as the second elimination sequence it retries when
    the AMD-ordered LDLᵀ meets a zero pivot. *)

val order : Csr.t -> int array
(** [order a] returns [perm] such that [Csr.permute_sym a perm] has a
    small profile; [perm.(new_index) = old_index]. The structure of
    [a] is symmetrised internally, so slightly unsymmetric patterns
    are accepted. Disconnected graphs are handled component by
    component. Guarantee: the returned ordering's {!Csr.profile}
    never exceeds the natural order's — when the heuristic loses,
    the identity permutation is returned instead. *)

val identity : int -> int array
(** The identity permutation (ordering disabled). *)
