(* Supernodal backend tests: scalable AMD (quotient-graph approximate
   minimum degree), fundamental-supernode detection, exact-fill
   agreement with the elimination-tree prediction, and the
   supernodal-vs-dense numeric oracle. *)

let pattern_of_lists n rows =
  let tr = Sparse.Triplet.create n n in
  List.iteri (fun i cols -> List.iter (fun j -> Sparse.Triplet.add tr i j 1.0) cols) rows;
  Sparse.Csr.of_triplet tr

let random_spd rng n extra =
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr i i 2.0
  done;
  for _ = 1 to extra do
    let i = Linalg.Rng.int rng n and j = Linalg.Rng.int rng n in
    if i <> j then Sparse.Triplet.add_sym tr i j (-1.0 /. float_of_int (4 * n))
  done;
  Sparse.Csr.of_triplet tr

let grid_pattern rows cols =
  let n = rows * cols in
  let tr = Sparse.Triplet.create n n in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let u = (r * cols) + c in
      Sparse.Triplet.add tr u u 4.0;
      if r + 1 < rows then Sparse.Triplet.add_sym tr u ((r + 1) * cols + c) (-1.0);
      if c + 1 < cols then Sparse.Triplet.add_sym tr u ((r * cols) + c + 1) (-1.0)
    done
  done;
  Sparse.Csr.of_triplet tr

let is_permutation n perm =
  Array.length perm = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun i -> i >= 0 && i < n && not seen.(i) && (seen.(i) <- true; true))
    perm

(* ------------------------------------------------------------------ *)
(* approximate minimum degree                                          *)

let test_amd_approx_permutation () =
  let rng = Linalg.Rng.create 42 in
  for _ = 1 to 20 do
    let n = 1 + Linalg.Rng.int rng 120 in
    let a = random_spd rng n (3 * n) in
    let perm = Sparse.Amd.order_approx a in
    Alcotest.(check bool) "valid permutation" true (is_permutation n perm)
  done

let test_amd_approx_quality_grid () =
  (* on a 2-D grid the approximate AMD must beat both natural order
     and RCM by a wide margin — that is its whole reason to exist *)
  let a = grid_pattern 30 30 in
  let n = a.Sparse.Csr.rows in
  let natural = Sparse.Etree.factor_nnz (Sparse.Etree.of_pattern a) in
  let rcm = Sparse.Etree.predicted_nnz a (Sparse.Rcm.order a) in
  let amd = Sparse.Etree.predicted_nnz a (Sparse.Amd.order_approx a) in
  Alcotest.(check bool)
    (Printf.sprintf "amd %d < rcm %d on a grid" amd rcm)
    true (amd < rcm);
  Alcotest.(check bool)
    (Printf.sprintf "amd %d < natural %d on a grid" amd natural)
    true (amd < natural);
  ignore n

let test_amd_approx_vs_exact () =
  (* the approximation is allowed to lose to the exact greedy, but not
     catastrophically: within 1.5x on small random SPD patterns *)
  let rng = Linalg.Rng.create 7 in
  for _ = 1 to 10 do
    let n = 20 + Linalg.Rng.int rng 80 in
    let a = random_spd rng n (2 * n) in
    let exact = Sparse.Etree.predicted_nnz a (Sparse.Amd.order a) in
    let approx = Sparse.Etree.predicted_nnz a (Sparse.Amd.order_approx a) in
    Alcotest.(check bool)
      (Printf.sprintf "approx %d <= 1.5 * exact %d" approx exact)
      true
      (float_of_int approx <= 1.5 *. float_of_int exact)
  done

let test_amd_dispatch_guard () =
  (* Amd.order keeps the never-worse-than-natural guarantee on both
     sides of the size cutoff *)
  let a = grid_pattern 40 40 in
  let n = a.Sparse.Csr.rows in
  let perm = Sparse.Amd.order a in
  Alcotest.(check bool) "valid permutation" true (is_permutation n perm);
  let natural = Sparse.Etree.factor_nnz (Sparse.Etree.of_pattern a) in
  let amd = Sparse.Etree.predicted_nnz a perm in
  Alcotest.(check bool) "never worse than natural" true (amd <= natural)

let test_etree_postorder () =
  let a = pattern_of_lists 7 [ [ 0; 3 ]; [ 1; 4 ]; [ 2; 4 ]; [ 3; 5 ]; [ 4; 5 ]; [ 5; 6 ]; [ 6 ] ]
  in
  let et = Sparse.Etree.of_pattern a in
  let post = Sparse.Etree.postorder et in
  Alcotest.(check bool) "postorder is a permutation" true (is_permutation 7 post);
  (* postorder preserves the factor nnz exactly *)
  Alcotest.(check int) "fill preserved"
    (Sparse.Etree.factor_nnz et)
    (Sparse.Etree.predicted_nnz a post);
  (* every node appears after all tree descendants *)
  let rank = Array.make 7 0 in
  Array.iteri (fun k j -> rank.(j) <- k) post;
  Array.iteri
    (fun j p -> if p <> -1 then Alcotest.(check bool) "child before parent" true (rank.(j) < rank.(p)))
    et.Sparse.Etree.parent

(* ------------------------------------------------------------------ *)
(* supernodal symbolic phase                                           *)

let test_supernode_detection () =
  (* a dense trailing block after an arrow pattern: columns sharing
     nested structure must coalesce into one supernode *)
  let n = 6 in
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr i i 4.0
  done;
  (* columns 2..5 fully coupled; 0 and 1 hang off column 2 *)
  for i = 2 to n - 1 do
    for j = i + 1 to n - 1 do
      Sparse.Triplet.add_sym tr i j (-0.5)
    done
  done;
  Sparse.Triplet.add_sym tr 0 2 (-0.5);
  Sparse.Triplet.add_sym tr 1 2 (-0.5);
  let a = Sparse.Csr.of_triplet tr in
  let sym = Sparse.Supernodal.symbolic a in
  (* singleton supernodes {0} and {1} plus the fundamental {2,3,4,5} *)
  Alcotest.(check int) "three supernodes" 3 (Sparse.Supernodal.supernodes sym);
  Alcotest.(check int) "exact fill"
    (Sparse.Etree.factor_nnz (Sparse.Etree.of_pattern a))
    (Sparse.Supernodal.nnz sym)

let test_exact_fill_grid () =
  (* rc_grid-shaped pattern under the backend's own ordering: stored
     factor nnz must equal the elimination-tree prediction exactly *)
  let a = grid_pattern 20 25 in
  let perm = Sparse.Supernodal.order a in
  let pa = Sparse.Csr.permute_sym a perm in
  let sym = Sparse.Supernodal.symbolic pa in
  Alcotest.(check int) "stored nnz = predicted nnz"
    (Sparse.Etree.predicted_nnz a perm)
    (Sparse.Supernodal.nnz sym);
  (* relaxed amalgamation may only add stored zeros, never lose entries *)
  let relaxed = Sparse.Supernodal.symbolic ~relax:16 pa in
  Alcotest.(check bool) "relaxed >= exact" true
    (Sparse.Supernodal.nnz relaxed >= Sparse.Supernodal.nnz sym);
  Alcotest.(check bool) "relaxed merges more" true
    (Sparse.Supernodal.supernodes relaxed <= Sparse.Supernodal.supernodes sym)

(* ------------------------------------------------------------------ *)
(* numeric oracle: supernodal vs dense LDLᵀ / complex LU              *)

let max_rel_err x y =
  let scale =
    Array.fold_left (fun m v -> Float.max m (Float.abs v)) 1e-300 y
  in
  let e = ref 0.0 in
  Array.iteri (fun i v -> e := Float.max !e (Float.abs (v -. y.(i)) /. scale)) x;
  !e

let random_pencil rng n =
  (* RC-shaped SPD pair: diagonally dominant G, diagonal-plus-coupling C *)
  let g = random_spd rng n (3 * n) in
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr i i (1.0 +. Linalg.Rng.float rng)
  done;
  for _ = 1 to n do
    let i = Linalg.Rng.int rng n and j = Linalg.Rng.int rng n in
    if i <> j then Sparse.Triplet.add_sym tr i j (-1e-3)
  done;
  (g, Sparse.Csr.of_triplet tr)

let dense_shifted g c s0 = Sparse.Csr.to_dense (Sparse.Csr.add ~alpha:1.0 ~beta:s0 g c)

let test_real_oracle () =
  let rng = Linalg.Rng.create 11 in
  List.iter
    (fun relax ->
      for _ = 1 to 8 do
        let n = 10 + Linalg.Rng.int rng 150 in
        let g, c = random_pencil rng n in
        let perm = Sparse.Supernodal.order ~c g in
        let pg = Sparse.Csr.permute_sym g perm in
        let pc = Sparse.Csr.permute_sym c perm in
        let s0 = 0.5 in
        let sym = Sparse.Supernodal.symbolic ~relax ~c:pc pg in
        let fac = Sparse.Supernodal.Real.factor sym s0 in
        let oracle = Linalg.Ldlt.factor (dense_shifted pg pc s0) in
        let b = Array.init n (fun _ -> (2.0 *. Linalg.Rng.float rng) -. 1.0) in
        let x = Sparse.Supernodal.Real.solve fac b in
        let y = Linalg.Ldlt.solve oracle b in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d relax=%d rel err %g" n relax (max_rel_err x y))
          true
          (max_rel_err x y < 1e-9)
      done)
    [ 0; 32 ]

let test_real_extra_stamps () =
  let rng = Linalg.Rng.create 23 in
  let n = 60 in
  let g, c = random_pencil rng n in
  let perm = Sparse.Supernodal.order ~c g in
  let pg = Sparse.Csr.permute_sym g perm in
  let pc = Sparse.Csr.permute_sym c perm in
  let sym = Sparse.Supernodal.symbolic ~c:pc pg in
  (* stamp onto existing pattern positions: diagonal plus a stored
     off-diagonal entry of G *)
  let offd = ref None in
  (try
     for i = 0 to n - 1 do
       Sparse.Csr.iter_row pg i (fun j _ -> if j < i then (offd := Some (i, j); raise Exit))
     done
   with Exit -> ());
  let i0, j0 = Option.get !offd in
  let extra = [| (3, 3, 0.7); (i0, j0, -0.2) |] in
  let fac = Sparse.Supernodal.Real.factor ~extra sym 1.0 in
  (* an off-diagonal stamp lands on both triangles of the symmetric matrix *)
  let a = dense_shifted pg pc 1.0 in
  Array.iter
    (fun (i, j, v) ->
      Linalg.Mat.add_to a i j v;
      if i <> j then Linalg.Mat.add_to a j i v)
    extra;
  let b = Array.init n (fun i -> Float.sin (float_of_int i)) in
  Alcotest.(check bool) "stamped solve matches dense" true
    (max_rel_err (Sparse.Supernodal.Real.solve fac b)
       (Linalg.Ldlt.solve (Linalg.Ldlt.factor a) b)
    < 1e-9);
  (* an out-of-pattern stamp must be rejected, not silently dropped *)
  Alcotest.check_raises "out-of-pattern stamp"
    (Invalid_argument "Supernodal: extra entry outside the factor pattern") (fun () ->
      let far = Array.init n (fun k -> k) in
      let i = far.(n - 1) and j = far.(0) in
      if Sparse.Csr.get pg i j = 0.0 && Sparse.Csr.get pc i j = 0.0 then
        ignore (Sparse.Supernodal.Real.factor ~extra:[| (i, j, 1.0) |] sym 1.0)
      else raise (Invalid_argument "Supernodal: extra entry outside the factor pattern"))

let test_complex_oracle () =
  let rng = Linalg.Rng.create 31 in
  for _ = 1 to 8 do
    let n = 10 + Linalg.Rng.int rng 120 in
    let g, c = random_pencil rng n in
    let perm = Sparse.Supernodal.order ~c g in
    let pg = Sparse.Csr.permute_sym g perm in
    let pc = Sparse.Csr.permute_sym c perm in
    let s = { Complex.re = 0.3; im = 2.0 *. Float.pi *. 1e3 } in
    let sym = Sparse.Supernodal.symbolic ~c:pc pg in
    let fac = Sparse.Supernodal.Complex_soa.factor sym s in
    let oracle =
      Linalg.Cmat.lu_factor
        (Linalg.Cmat.lincomb Complex.one (Sparse.Csr.to_dense pg) s (Sparse.Csr.to_dense pc))
    in
    let b = Array.init n (fun i -> { Complex.re = Float.cos (float_of_int i); im = 0.25 }) in
    let re = Array.map (fun z -> z.Complex.re) b in
    let im = Array.map (fun z -> z.Complex.im) b in
    Sparse.Supernodal.Complex_soa.solve_split fac re im;
    let y = Linalg.Cmat.lu_solve_vec oracle b in
    let yre = Array.map (fun z -> z.Complex.re) y in
    let yim = Array.map (fun z -> z.Complex.im) y in
    Alcotest.(check bool)
      (Printf.sprintf "n=%d re err %g" n (max_rel_err re yre))
      true (max_rel_err re yre < 1e-9);
    Alcotest.(check bool)
      (Printf.sprintf "n=%d im err %g" n (max_rel_err im yim))
      true (max_rel_err im yim < 1e-9)
  done

let test_singular_raises () =
  let n = 4 in
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr i i (if i = 2 then 0.0 else 1.0)
  done;
  Sparse.Triplet.add_sym tr 0 2 0.0;
  let a = Sparse.Csr.of_triplet tr in
  let sym = Sparse.Supernodal.symbolic a in
  Alcotest.check_raises "zero pivot" (Sparse.Supernodal.Singular 2) (fun () ->
      ignore (Sparse.Supernodal.Real.factor sym 0.0))

let () =
  Alcotest.run "supernodal"
    [
      ( "amd",
        [
          Alcotest.test_case "approx produces permutations" `Quick test_amd_approx_permutation;
          Alcotest.test_case "approx beats rcm+natural on grids" `Quick test_amd_approx_quality_grid;
          Alcotest.test_case "approx within 1.5x of exact" `Quick test_amd_approx_vs_exact;
          Alcotest.test_case "order dispatch keeps guard" `Quick test_amd_dispatch_guard;
          Alcotest.test_case "etree postorder" `Quick test_etree_postorder;
        ] );
      ( "symbolic",
        [
          Alcotest.test_case "supernode detection" `Quick test_supernode_detection;
          Alcotest.test_case "exact fill on grid" `Quick test_exact_fill_grid;
        ] );
      ( "numeric",
        [
          Alcotest.test_case "real pencil vs dense ldlt" `Quick test_real_oracle;
          Alcotest.test_case "extra stamps" `Quick test_real_extra_stamps;
          Alcotest.test_case "complex pencil vs dense lu" `Quick test_complex_oracle;
          Alcotest.test_case "singular pivot" `Quick test_singular_raises;
        ] );
    ]
