let max_pole_re model =
  Array.fold_left
    (fun acc p -> Float.max acc p.Complex.re)
    neg_infinity (Model.poles model)

let pole_scale model =
  Array.fold_left
    (fun acc p -> Float.max acc (Linalg.Cx.abs p))
    1.0 (Model.poles model)

let is_stable ?(tol = 1e-9) model = max_pole_re model <= tol *. pole_scale model

type passivity_certificate = Certified | Indefinite_t of float | Not_applicable

let passivity_certificate ?(tol = 1e-9) model =
  if (not model.Model.definite) || model.Model.shift <> 0.0 then Not_applicable
  else begin
    let tmin = Linalg.Eig_sym.min_eigenvalue model.Model.t_mat in
    let scale =
      Float.max (Linalg.Mat.max_abs model.Model.t_mat) 1e-300
    in
    if tmin >= -.tol *. scale then Certified else Indefinite_t tmin
  end

let unstable_poles model =
  let scale = pole_scale model in
  Array.of_list
    (List.filter
       (fun p -> p.Complex.re > 1e-9 *. scale)
       (Array.to_list (Model.poles model)))
