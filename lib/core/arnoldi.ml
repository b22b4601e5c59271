type t = Krylov.model = {
  ghat : Linalg.Mat.t;
  chat : Linalg.Mat.t;
  bhat : Linalg.Mat.t;
  order : int;
  p : int;
  shift : float;
  variable : Circuit.Mna.variable;
  gain : Circuit.Mna.gain;
}

let reduce ?ctx ?shift ?band ~order (m : Circuit.Mna.t) =
  let ctx = match ctx with Some p -> p | None -> Pencil.create m in
  (* shift resolution and factorisation via the shared policy: PRIMA
     expands about the exact same point SyMPVL/MPVL would pick *)
  Pencil.with_auto_shift ?shift ?band ctx @@ fun s0 fac ->
  Krylov.project ~shift:s0 m (Krylov.basis ~cap:order m [ (fac, order) ])

let shift_of_hz (m : Circuit.Mna.t) f =
  let w = 2.0 *. Float.pi *. f in
  match m.Circuit.Mna.variable with
  | Circuit.Mna.S -> w
  | Circuit.Mna.S_squared -> w *. w

let reduce_multipoint ?ctx ~points (m : Circuit.Mna.t) =
  assert (points <> []);
  let ctx = match ctx with Some p -> p | None -> Pencil.create m in
  (* repeated expansion points are cache hits on the context *)
  let factored = List.map (fun (s0, steps) -> (Pencil.factor ctx ~shift:s0, steps)) points in
  Krylov.project ~shift:(fst (List.hd points)) m (Krylov.basis m factored)

let eval = Krylov.eval
let poles = Krylov.poles
