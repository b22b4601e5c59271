module Mat = Linalg.Mat

type t = { proj : Krylov.model; n1 : int; n2 : int; krylov_cols : int }

let reduce ?ctx ?shift ?band ~order (m : Circuit.Mna.t) =
  let n = m.Circuit.Mna.n in
  let nn = m.Circuit.Mna.n_nodes in
  let ni = n - nn in
  if m.Circuit.Mna.variable <> Circuit.Mna.S || m.Circuit.Mna.gain <> Circuit.Mna.Unit
  then
    invalid_arg
      "Sprim.reduce: needs the general RLC form (variable s, unit gain)";
  if ni = 0 then
    invalid_arg "Sprim.reduce: no inductor-current block to preserve";
  let ctx = match ctx with Some p -> p | None -> Pencil.create m in
  Pencil.with_auto_shift ?shift ?band ctx @@ fun s0 fac ->
  (* Phase 1 — the PRIMA basis itself: same expansion point, same MGS,
     capped at [order] columns. *)
  let v = Krylov.basis ~cap:order m [ (fac, order) ] in
  let krylov_cols = Array.length v in
  (* Phase 2 — SPRIM split-and-re-block: cut the basis rows at the
     node/current boundary, orthonormalise each part and pad it back
     to full length. span(blkdiag(V₁, V₂)) ⊇ span(V), so the
     projection matches at least as many moments as PRIMA's, while
     the projector now commutes with the 2×2 block structure. *)
  let half off len =
    let q, rank =
      Linalg.Qr.orthonormalize (Mat.init len krylov_cols (fun i j -> v.(j).(off + i)))
    in
    Array.init rank (fun j ->
        let w = Linalg.Vec.create n in
        for i = 0 to len - 1 do
          w.(off + i) <- Mat.get q i j
        done;
        w)
  in
  let w1 = half 0 nn and w2 = half nn ni in
  let n1 = Array.length w1 and n2 = Array.length w2 in
  (* Phase 3 — the shared congruence with W = blkdiag(V₁, V₂). G's
     current–current block and C's off-diagonal blocks are structurally
     empty, so WᵀGW = [[Ĝn, Âᵀ]; [Â, 0]] and WᵀCW = [[Ĉn, 0]; [0, −ℒ̂]]
     come out with exact zeros: the reduced pencil is a genuine small
     RLC descriptor of the same first-order shape. *)
  let proj = Krylov.project ~shift:s0 m (Array.append w1 w2) in
  if Obs.tracing () then begin
    Obs.gauge "sprim.krylov_cols" (float_of_int krylov_cols);
    Obs.gauge "sprim.n1" (float_of_int n1);
    Obs.gauge "sprim.n2" (float_of_int n2);
    (* columns the split basis carries beyond the PRIMA basis it was
       cut from — the price of re-blocking (order n1 + n2 vs krylov_cols) *)
    Obs.gauge "sprim.split_overhead" (float_of_int (n1 + n2 - krylov_cols))
  end;
  { proj; n1; n2; krylov_cols }

let gn t = Mat.submatrix t.proj.Krylov.ghat 0 0 t.n1 t.n1
let cn t = Mat.submatrix t.proj.Krylov.chat 0 0 t.n1 t.n1
let a t = Mat.submatrix t.proj.Krylov.ghat t.n1 0 t.n2 t.n1

(* C's current block is −ℒ̂; return ℒ̂ itself *)
let lmat t = Mat.scale (-1.0) (Mat.submatrix t.proj.Krylov.chat t.n1 t.n1 t.n2 t.n2)
let bn t = Mat.submatrix t.proj.Krylov.bhat 0 0 t.n1 t.proj.Krylov.p

let structure_error t =
  let rel m =
    let s = Float.max (Mat.max_abs m) 1e-300 in
    Mat.dist_max m (Mat.transpose m) /. s
  in
  Float.max (rel (gn t)) (Float.max (rel (cn t)) (rel (lmat t)))
