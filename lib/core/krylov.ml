module Mat = Linalg.Mat
module Vec = Linalg.Vec
module Mgs = Linalg.Qr.Mgs

type model = {
  ghat : Mat.t;
  chat : Mat.t;
  bhat : Mat.t;
  order : int;
  p : int;
  shift : float;
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
}

let basis ?cap (m : Circuit.Mna.t) points =
  let b = m.Circuit.Mna.b in
  let p = b.Mat.cols in
  let cap =
    match cap with
    | Some k -> k
    | None -> List.fold_left (fun acc (_, steps) -> acc + (max steps 1 * p)) 0 points
  in
  let acc = Mgs.create (max cap 0) in
  let cv = Vec.create m.Circuit.Mna.n in
  List.iter
    (fun ((fac : Factor.t), steps) ->
      (* block 1 is K⁻¹B; block k+1 applies K⁻¹C to the columns block k
         kept, so a deflated column ends its own chain *)
      let lo = ref (Mgs.count acc) in
      for col = 0 to p - 1 do
        if not (Mgs.full acc) then ignore (Mgs.push acc (fac.Factor.solve (Mat.col b col)))
      done;
      let step = ref 1 in
      while !step < steps && !lo < Mgs.count acc && not (Mgs.full acc) do
        let hi = Mgs.count acc in
        for k = !lo to hi - 1 do
          if not (Mgs.full acc) then begin
            Sparse.Csr.mul_vec_into m.Circuit.Mna.c (Mgs.col acc k) cv;
            ignore (Mgs.push acc (fac.Factor.solve cv))
          end
        done;
        lo := hi;
        incr step
      done)
    points;
  Mgs.columns acc

let congruence a w =
  let k = Array.length w in
  let r = Mat.create k k in
  let y = Vec.create a.Sparse.Csr.rows in
  for j = 0 to k - 1 do
    Sparse.Csr.mul_vec_into a w.(j) y;
    for i = 0 to j do
      let x = Vec.dot w.(i) y in
      Mat.set r i j x;
      Mat.set r j i x
    done
  done;
  r

let project ~shift (m : Circuit.Mna.t) w =
  let b = m.Circuit.Mna.b in
  let p = b.Mat.cols in
  let bcols = Array.init p (Mat.col b) in
  {
    ghat = congruence m.Circuit.Mna.g w;
    chat = congruence m.Circuit.Mna.c w;
    bhat = Mat.init (Array.length w) p (fun i j -> Vec.dot w.(i) bcols.(j));
    order = Array.length w;
    p;
    shift;
    variable = m.Circuit.Mna.variable;
    gain = m.Circuit.Mna.gain;
  }

let eval t s =
  let var =
    match t.variable with
    | Circuit.Mna.S -> s
    | Circuit.Mna.S_squared -> Linalg.Cx.(s *: s)
  in
  let k = Linalg.Cmat.lincomb Linalg.Cx.one t.ghat var t.chat in
  let b = Linalg.Cmat.of_real t.bhat in
  let z =
    Linalg.Cmat.mul (Linalg.Cmat.transpose b)
      (Linalg.Cmat.lu_solve_mat (Linalg.Cmat.lu_factor k) b)
  in
  match t.gain with
  | Circuit.Mna.Unit -> z
  | Circuit.Mna.Times_s -> Linalg.Cmat.scale s z

let poles t =
  (* generalised eigenvalues of (Ĝ, Ĉ): poles satisfy Ĝ + λĈ singular,
     found as the eigenvalues of −Ĉ⁻¹Ĝ when Ĉ is invertible *)
  match Linalg.Lu.factor t.chat with
  | lu ->
    let n = t.order in
    let m = Mat.create n n in
    for j = 0 to n - 1 do
      let col = Linalg.Lu.solve_vec lu (Mat.col t.ghat j) in
      Mat.set_col m j (Vec.scale (-1.0) col)
    done;
    Linalg.Eig_gen.eigenvalues m
  | exception Linalg.Lu.Singular _ -> [||]
