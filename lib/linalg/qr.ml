type t = {
  qr : Mat.t; (* Householder vectors below diagonal, R on/above *)
  tau : float array;
  m : int;
  n : int;
}

(* Apply householder H = I - tau v vᵀ (v stored in column k below the
   diagonal, with implicit v.(k) = 1) to vector x in place. *)
let apply_house qr tau k x =
  let open Mat in
  let m = qr.rows in
  let s = ref x.(k) in
  for i = k + 1 to m - 1 do
    s := !s +. (get qr i k *. x.(i))
  done;
  let s = tau *. !s in
  x.(k) <- x.(k) -. s;
  for i = k + 1 to m - 1 do
    x.(i) <- x.(i) -. (s *. get qr i k)
  done

let factor a =
  let open Mat in
  let m = a.rows and n = a.cols in
  assert (m >= n);
  let qr = copy a in
  let tau = Array.make n 0.0 in
  for k = 0 to n - 1 do
    (* build householder annihilating below-diagonal entries of col k *)
    let nrm = ref 0.0 in
    for i = k to m - 1 do
      nrm := !nrm +. (get qr i k *. get qr i k)
    done;
    let nrm = sqrt !nrm in
    if nrm > 0.0 then begin
      let akk = get qr k k in
      let alpha = if akk >= 0.0 then -.nrm else nrm in
      let v0 = akk -. alpha in
      tau.(k) <- -.v0 /. alpha;
      (* normalise so v.(k) = 1 *)
      for i = k + 1 to m - 1 do
        set qr i k (get qr i k /. v0)
      done;
      set qr k k alpha;
      (* update trailing columns *)
      for j = k + 1 to n - 1 do
        let s = ref (get qr k j) in
        for i = k + 1 to m - 1 do
          s := !s +. (get qr i k *. get qr i j)
        done;
        let s = tau.(k) *. !s in
        set qr k j (get qr k j -. s);
        for i = k + 1 to m - 1 do
          add_to qr i j (-.s *. get qr i k)
        done
      done
    end
  done;
  { qr; tau; m; n }

let r t =
  Mat.init t.n t.n (fun i j -> if j >= i then Mat.get t.qr i j else 0.0)

let q_thin t =
  let q = Mat.create t.m t.n in
  for j = 0 to t.n - 1 do
    let e = Vec.basis t.m j in
    (* Q e_j = H_0 H_1 ... H_{n-1} e_j *)
    for k = t.n - 1 downto 0 do
      if t.tau.(k) <> 0.0 then apply_house t.qr t.tau.(k) k e
    done;
    Mat.set_col q j e
  done;
  q

let solve_ls t b =
  assert (Vec.dim b = t.m);
  let y = Vec.copy b in
  for k = 0 to t.n - 1 do
    if t.tau.(k) <> 0.0 then apply_house t.qr t.tau.(k) k y
  done;
  let x = Vec.create t.n in
  for i = t.n - 1 downto 0 do
    let s = ref y.(i) in
    for j = i + 1 to t.n - 1 do
      s := !s -. (Mat.get t.qr i j *. x.(j))
    done;
    let d = Mat.get t.qr i i in
    if d = 0.0 then invalid_arg "Qr.solve_ls: rank deficient";
    x.(i) <- !s /. d
  done;
  x

let rank ?(tol = 1e-12) t =
  let dmax = ref 0.0 in
  for i = 0 to t.n - 1 do
    dmax := Float.max !dmax (Float.abs (Mat.get t.qr i i))
  done;
  let cnt = ref 0 in
  for i = 0 to t.n - 1 do
    if Float.abs (Mat.get t.qr i i) > tol *. Float.max !dmax 1.0 then incr cnt
  done;
  !cnt

(* Two-pass modified Gram–Schmidt over a column store preallocated to
   a fixed capacity. A candidate whose norm falls below 1e-10 of its
   input norm after both passes is numerically dependent and dropped. *)
module Mgs = struct
  type t = { store : Vec.t array; mutable count : int }

  let create capacity = { store = Array.make capacity [||]; count = 0 }
  let count t = t.count
  let full t = t.count >= Array.length t.store
  let col t k = t.store.(k)
  let columns t = Array.sub t.store 0 t.count

  let push t v =
    if full t then false
    else begin
      let w = Vec.copy v in
      let n0 = Vec.norm2 w in
      for _pass = 1 to 2 do
        for k = 0 to t.count - 1 do
          let q = t.store.(k) in
          let h = Vec.dot q w in
          Vec.axpy (-.h) q w
        done
      done;
      let n1 = Vec.norm2 w in
      if n1 > 1e-10 *. Float.max n0 1e-300 then begin
        Vec.scale_ip (1.0 /. n1) w;
        t.store.(t.count) <- w;
        t.count <- t.count + 1;
        true
      end
      else false
    end
end

let orthonormalize a =
  let acc = Mgs.create a.Mat.cols in
  for j = 0 to a.Mat.cols - 1 do
    ignore (Mgs.push acc (Mat.col a j))
  done;
  let q = Mat.create a.Mat.rows (Mgs.count acc) in
  Array.iteri (fun j v -> Mat.set_col q j v) (Mgs.columns acc);
  (q, Mgs.count acc)
