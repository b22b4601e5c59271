type t = {
  n : int;
  j : float array;
  definite : bool;
  apply_m_inv : Linalg.Vec.t -> Linalg.Vec.t;
  apply_mt_inv : Linalg.Vec.t -> Linalg.Vec.t;
  solve : Linalg.Vec.t -> Linalg.Vec.t;
  kind : [ `Supernodal | `Dense ];
}

exception Singular of int

(* Sparse path: P G Pᵀ = L D Lᵀ, M = Pᵀ L S with S = diag(√|D|),
   J = sign(D). Operators in original coordinates. *)
let of_supernodal n perm fac =
  let d = Sparse.Supernodal.Real.d fac in
  let j = Array.map (fun x -> if x >= 0.0 then 1.0 else -1.0) d in
  let s = Array.map (fun x -> sqrt (Float.abs x)) d in
  let definite = Array.for_all (fun x -> x > 0.0) j in
  let permute x = Array.init n (fun i -> x.(perm.(i))) in
  let unpermute y =
    let out = Array.make n 0.0 in
    for i = 0 to n - 1 do
      out.(perm.(i)) <- y.(i)
    done;
    out
  in
  let apply_m_inv x =
    (* S⁻¹ L⁻¹ P x *)
    let z = Sparse.Supernodal.Real.solve_lower fac (permute x) in
    for i = 0 to n - 1 do
      z.(i) <- z.(i) /. s.(i)
    done;
    z
  in
  let apply_mt_inv y =
    (* Pᵀ L⁻ᵀ S⁻¹ y *)
    let z = Array.init n (fun i -> y.(i) /. s.(i)) in
    unpermute (Sparse.Supernodal.Real.solve_lower_t fac z)
  in
  let solve b = unpermute (Sparse.Supernodal.Real.solve fac (permute b)) in
  { n; j; definite; apply_m_inv; apply_mt_inv; solve; kind = `Supernodal }

let of_dense a =
  let n = a.Linalg.Mat.rows in
  Obs.with_span "factor.dense" @@ fun () ->
  match Linalg.Ldlt.factor a with
  | fac ->
    let solve =
      if San.fp () then (fun b ->
        let x = Linalg.Ldlt.solve fac b in
        San.Fp.check_array ~name:"factor.dense_solve" x;
        x)
      else Linalg.Ldlt.solve fac
    in
    {
      n;
      j = Linalg.Ldlt.j_diag fac;
      definite = Linalg.Ldlt.is_definite fac;
      apply_m_inv = Linalg.Ldlt.apply_m_inv fac;
      apply_mt_inv = Linalg.Ldlt.apply_mt_inv fac;
      solve;
      kind = `Dense;
    }
  | exception Linalg.Ldlt.Singular i -> raise (Singular i)
