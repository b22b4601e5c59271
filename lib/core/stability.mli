(** Stability and passivity analysis of reduced-order models
    (paper Section 5). *)

val max_pole_re : Model.t -> float
(** Largest real part over the model's physical poles ([−∞] when the
    model has no finite poles). *)

val is_stable : ?tol:float -> Model.t -> bool
(** All physical poles satisfy [Re ≤ tol] (default [1e-9] relative to
    the pole magnitude scale). *)

type passivity_certificate =
  | Certified
      (** [J = I] and [Tₙ ⪰ 0]: the model is provably passive
          (Section 5.2) — holds for RC/RL/LC circuits expanded about
          [s₀ = 0]. *)
  | Indefinite_t of float
      (** [J = I] but [Tₙ] has the given negative eigenvalue. *)
  | Not_applicable
      (** Indefinite [J] (general RLC) or a nonzero expansion shift:
          no structural certificate; the Hamiltonian band test
          ({!Linalg.Hamiltonian.violation_bands} on
          {!Certify.phys_pencil}) decides. *)

val passivity_certificate : ?tol:float -> Model.t -> passivity_certificate

val unstable_poles : Model.t -> Complex.t array
