(* Tests for the sparse substrate: COO/CSR, RCM ordering, sparse LDLᵀ. *)

let checkf msg ~tol expected actual = Alcotest.(check (float tol)) msg expected actual

(* a small symmetric 5-point-stencil Laplacian on a g×g grid, plus
   diagonal shift to make it definite *)
let grid_laplacian g shift =
  let n = g * g in
  let tr = Sparse.Triplet.create n n in
  let idx i j = (i * g) + j in
  for i = 0 to g - 1 do
    for j = 0 to g - 1 do
      let u = idx i j in
      Sparse.Triplet.add tr u u (4.0 +. shift);
      if i > 0 then Sparse.Triplet.add tr u (idx (i - 1) j) (-1.0);
      if i < g - 1 then Sparse.Triplet.add tr u (idx (i + 1) j) (-1.0);
      if j > 0 then Sparse.Triplet.add tr u (idx i (j - 1)) (-1.0);
      if j < g - 1 then Sparse.Triplet.add tr u (idx i (j + 1)) (-1.0)
    done
  done;
  Sparse.Csr.of_triplet tr

(* ------------------------------------------------------------------ *)
(* Triplet / CSR                                                      *)

let test_triplet_merge () =
  let tr = Sparse.Triplet.create 3 3 in
  Sparse.Triplet.add tr 0 0 1.0;
  Sparse.Triplet.add tr 0 0 2.0;
  Sparse.Triplet.add tr 2 1 5.0;
  Sparse.Triplet.add tr 1 2 0.0;
  (* dropped *)
  let a = Sparse.Csr.of_triplet tr in
  Alcotest.(check int) "nnz after merge" 2 (Sparse.Csr.nnz a);
  checkf "merged" ~tol:0.0 3.0 (Sparse.Csr.get a 0 0);
  checkf "other" ~tol:0.0 5.0 (Sparse.Csr.get a 2 1);
  checkf "absent" ~tol:0.0 0.0 (Sparse.Csr.get a 1 1)

let test_triplet_bounds () =
  let tr = Sparse.Triplet.create 2 2 in
  Alcotest.(check bool) "raises" true
    (try
       Sparse.Triplet.add tr 2 0 1.0;
       false
     with Invalid_argument _ -> true)

let test_csr_dense_roundtrip () =
  let rng = Linalg.Rng.create 21 in
  let m =
    Linalg.Mat.init 6 7 (fun _ _ ->
        if Linalg.Rng.float rng < 0.3 then Linalg.Rng.uniform rng (-2.0) 2.0 else 0.0)
  in
  let a = Sparse.Csr.of_dense m in
  checkf "roundtrip" ~tol:0.0 0.0 (Linalg.Mat.dist_max (Sparse.Csr.to_dense a) m)

let test_csr_spmv () =
  let a = grid_laplacian 4 0.5 in
  let d = Sparse.Csr.to_dense a in
  let x = Linalg.Vec.init 16 (fun i -> sin (float_of_int i)) in
  let y_sparse = Sparse.Csr.mul_vec a x in
  let y_dense = Linalg.Mat.mul_vec d x in
  checkf "spmv matches dense" ~tol:1e-13 0.0 (Linalg.Vec.dist_inf y_sparse y_dense)

let test_csr_transpose () =
  let tr = Sparse.Triplet.create 2 3 in
  Sparse.Triplet.add tr 0 2 4.0;
  Sparse.Triplet.add tr 1 0 (-3.0);
  let a = Sparse.Csr.of_triplet tr in
  let at = Sparse.Csr.transpose a in
  checkf "t(0,2)->(2,0)" ~tol:0.0 4.0 (Sparse.Csr.get at 2 0);
  checkf "t(1,0)->(0,1)" ~tol:0.0 (-3.0) (Sparse.Csr.get at 0 1);
  Alcotest.(check int) "rows" 3 at.Sparse.Csr.rows

let test_csr_add_scale () =
  let a = grid_laplacian 3 0.0 in
  let b = Sparse.Csr.identity 9 in
  let c = Sparse.Csr.add ~alpha:2.0 ~beta:(-1.0) a b in
  checkf "2a - I diag" ~tol:1e-14 7.0 (Sparse.Csr.get c 4 4);
  let s = Sparse.Csr.scale 3.0 b in
  checkf "scale" ~tol:0.0 3.0 (Sparse.Csr.get s 0 0)

let test_csr_symmetric () =
  let a = grid_laplacian 3 1.0 in
  Alcotest.(check bool) "laplacian symmetric" true (Sparse.Csr.is_symmetric a);
  let tr = Sparse.Triplet.create 2 2 in
  Sparse.Triplet.add tr 0 1 1.0;
  let b = Sparse.Csr.of_triplet tr in
  Alcotest.(check bool) "unsymmetric detected" false (Sparse.Csr.is_symmetric b)

let test_csr_permute_sym () =
  let a = grid_laplacian 3 2.0 in
  let perm = [| 4; 0; 8; 2; 6; 1; 3; 5; 7 |] in
  let p = Sparse.Csr.permute_sym a perm in
  (* spot-check P A Pᵀ entries *)
  for i = 0 to 8 do
    for j = 0 to 8 do
      checkf "permuted entry" ~tol:0.0
        (Sparse.Csr.get a perm.(i) perm.(j))
        (Sparse.Csr.get p i j)
    done
  done

(* ------------------------------------------------------------------ *)
(* RCM                                                                *)

let test_rcm_reduces_profile () =
  (* random sparse symmetric with scattered pattern *)
  let n = 60 in
  let rng = Linalg.Rng.create 31 in
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr i i 4.0
  done;
  for _ = 1 to 3 * n do
    let i = Linalg.Rng.int rng n and j = Linalg.Rng.int rng n in
    if i <> j then Sparse.Triplet.add_sym tr i j (-0.1)
  done;
  let a = Sparse.Csr.of_triplet tr in
  let perm = Sparse.Rcm.order a in
  (* perm must be a permutation *)
  let seen = Array.make n false in
  Array.iter (fun p -> seen.(p) <- true) perm;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen);
  let p = Sparse.Csr.permute_sym a perm in
  Alcotest.(check bool) "profile not increased much" true
    (Sparse.Csr.profile p <= Sparse.Csr.profile a)

let test_rcm_chain_bandwidth () =
  (* a path graph given in scrambled order should come back banded *)
  let n = 40 in
  let scramble = Array.init n (fun i -> (i * 17) mod n) in
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr scramble.(i) scramble.(i) 2.0
  done;
  for i = 0 to n - 2 do
    Sparse.Triplet.add_sym tr scramble.(i) scramble.(i + 1) (-1.0)
  done;
  let a = Sparse.Csr.of_triplet tr in
  let p = Sparse.Csr.permute_sym a (Sparse.Rcm.order a) in
  Alcotest.(check bool)
    (Printf.sprintf "bandwidth small (%d)" (Sparse.Csr.bandwidth p))
    true
    (Sparse.Csr.bandwidth p <= 2)

let test_rcm_disconnected () =
  (* two disjoint chains *)
  let tr = Sparse.Triplet.create 6 6 in
  for i = 0 to 5 do
    Sparse.Triplet.add tr i i 2.0
  done;
  Sparse.Triplet.add_sym tr 0 2 (-1.0);
  Sparse.Triplet.add_sym tr 2 4 (-1.0);
  Sparse.Triplet.add_sym tr 1 3 (-1.0);
  Sparse.Triplet.add_sym tr 3 5 (-1.0);
  let a = Sparse.Csr.of_triplet tr in
  let perm = Sparse.Rcm.order a in
  let seen = Array.make 6 false in
  Array.iter (fun p -> seen.(p) <- true) perm;
  Alcotest.(check bool) "covers all nodes" true (Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Sparse LDLᵀ (supernodal kernel) on small hand-checked matrices      *)

(* factor [a] in the order the pencil uses (AMD + etree postorder) and
   return the factor with a solve in original coordinates *)
let ldlt a =
  let n = a.Sparse.Csr.rows in
  let perm = Sparse.Supernodal.order a in
  let fac =
    Sparse.Supernodal.Real.factor
      (Sparse.Supernodal.symbolic (Sparse.Csr.permute_sym a perm))
      0.0
  in
  let solve b =
    let y = Sparse.Supernodal.Real.solve fac (Array.init n (fun i -> b.(perm.(i)))) in
    let x = Array.make n 0.0 in
    Array.iteri (fun i p -> x.(p) <- y.(i)) perm;
    x
  in
  (fac, solve)

let test_ldlt_real_solve () =
  let a = grid_laplacian 6 1.0 in
  let _, solve = ldlt a in
  let b = Array.init 36 (fun i -> cos (float_of_int i)) in
  let r = Sparse.Csr.mul_vec a (solve b) in
  let worst = ref 0.0 in
  Array.iteri (fun i ri -> worst := Float.max !worst (Float.abs (ri -. b.(i)))) r;
  checkf "residual" ~tol:1e-10 0.0 !worst

let test_ldlt_matches_dense () =
  let a = grid_laplacian 4 0.7 in
  let d = Sparse.Csr.to_dense a in
  let b = Linalg.Vec.init 16 (fun i -> float_of_int (i mod 3) -. 1.0) in
  let _, solve = ldlt a in
  let x_dense = Linalg.Lu.solve d b in
  checkf "sparse = dense" ~tol:1e-10 0.0 (Linalg.Vec.dist_inf (solve b) x_dense)

let test_ldlt_indefinite () =
  (* symmetric indefinite but factorable without pivoting in any order *)
  let m =
    Linalg.Mat.of_arrays
      [| [| 2.0; 1.0; 0.0 |]; [| 1.0; -3.0; 1.0 |]; [| 0.0; 1.0; 1.0 |] |]
  in
  let fac, solve = ldlt (Sparse.Csr.of_dense m) in
  let d = Sparse.Supernodal.Real.d fac in
  Alcotest.(check bool) "has a negative pivot" true (Array.exists (fun x -> x < 0.0) d);
  let b = [| 1.0; 0.0; -1.0 |] in
  let r = Linalg.Vec.sub (Linalg.Mat.mul_vec m (solve b)) b in
  checkf "indefinite residual" ~tol:1e-12 0.0 (Linalg.Vec.norm_inf r)

let test_ldlt_singular_raises () =
  let m = Linalg.Mat.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  Alcotest.(check bool) "raises Singular" true
    (try
       ignore (ldlt (Sparse.Csr.of_dense m));
       false
     with Sparse.Supernodal.Singular _ -> true)

let test_ldlt_complex () =
  let g = grid_laplacian 4 0.3 in
  let c = Sparse.Csr.identity 16 in
  let s = { Complex.re = 0.0; im = 2.0 } in
  let perm = Sparse.Supernodal.order ~c g in
  let sym =
    Sparse.Supernodal.symbolic ~c:(Sparse.Csr.permute_sym c perm)
      (Sparse.Csr.permute_sym g perm)
  in
  let f = Sparse.Supernodal.Complex_soa.factor sym s in
  let b = Array.init 16 (fun i -> { Complex.re = float_of_int i; im = 1.0 }) in
  let re = Array.init 16 (fun i -> b.(perm.(i)).Complex.re) in
  let im = Array.init 16 (fun i -> b.(perm.(i)).Complex.im) in
  Sparse.Supernodal.Complex_soa.solve_split f re im;
  let x = Array.make 16 Complex.zero in
  Array.iteri (fun i p -> x.(p) <- { Complex.re = re.(i); im = im.(i) }) perm;
  (* residual against dense complex matvec *)
  let gc =
    Linalg.Cmat.lincomb Linalg.Cx.one (Sparse.Csr.to_dense g) s (Sparse.Csr.to_dense c)
  in
  let r = Linalg.Cmat.mul_vec gc x in
  let worst = ref 0.0 in
  Array.iteri
    (fun i ri -> worst := Float.max !worst (Linalg.Cx.abs (Complex.sub ri b.(i))))
    r;
  checkf "complex residual" ~tol:1e-10 0.0 !worst

let test_ldlt_rcm_fill () =
  (* on a scrambled chain, the RCM elimination sequence (postordered,
     as the pencil's retry uses it) stores no fill at all, while the
     scrambled natural order does *)
  let n = 50 in
  let scramble = Array.init n (fun i -> (i * 23) mod n) in
  let tr = Sparse.Triplet.create n n in
  for i = 0 to n - 1 do
    Sparse.Triplet.add tr scramble.(i) scramble.(i) 3.0
  done;
  for i = 0 to n - 2 do
    Sparse.Triplet.add_sym tr scramble.(i) scramble.(i + 1) (-1.0)
  done;
  let a = Sparse.Csr.of_triplet tr in
  let fill perm =
    Sparse.Supernodal.nnz
      (Sparse.Supernodal.symbolic
         (Sparse.Csr.permute_sym a (Sparse.Supernodal.postordered a perm)))
  in
  let natural = fill (Sparse.Rcm.identity n) and rcm = fill (Sparse.Rcm.order a) in
  Alcotest.(check int) "rcm stores the chain exactly" ((2 * n) - 1) rcm;
  Alcotest.(check bool) (Printf.sprintf "fill %d -> %d" natural rcm) true (rcm < natural)

let test_csr_bandwidth_profile () =
  let tr = Sparse.Triplet.create 5 5 in
  for i = 0 to 4 do
    Sparse.Triplet.add tr i i 1.0
  done;
  Sparse.Triplet.add_sym tr 0 3 0.5;
  let a = Sparse.Csr.of_triplet tr in
  Alcotest.(check int) "bandwidth" 3 (Sparse.Csr.bandwidth a);
  (* profile: rows 0,1,2 start at diag; row 3 reaches back to col 0 *)
  Alcotest.(check int) "profile" 3 (Sparse.Csr.profile a)

let test_ldlt_fill_reported () =
  let tr = Sparse.Triplet.create 4 4 in
  for i = 0 to 3 do
    Sparse.Triplet.add tr i i 4.0
  done;
  Sparse.Triplet.add_sym tr 0 3 1.0;
  let fac, _ = ldlt (Sparse.Csr.of_triplet tr) in
  (* four pivots plus the one coupling entry, under any ordering *)
  Alcotest.(check int) "fill" 5 (Sparse.Supernodal.Real.fill fac)

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)

let prop_spmv_matches_dense =
  QCheck.Test.make ~count:50 ~name:"csr: spmv matches dense matvec"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let rows = 1 + Linalg.Rng.int rng 10 and cols = 1 + Linalg.Rng.int rng 10 in
      let m =
        Linalg.Mat.init rows cols (fun _ _ ->
            if Linalg.Rng.float rng < 0.4 then Linalg.Rng.uniform rng (-1.0) 1.0 else 0.0)
      in
      let a = Sparse.Csr.of_dense m in
      let x = Linalg.Vec.init cols (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
      Linalg.Vec.dist_inf (Sparse.Csr.mul_vec a x) (Linalg.Mat.mul_vec m x) < 1e-12)

let prop_ldlt_solve =
  QCheck.Test.make ~count:30 ~name:"sparse ldlt: SPD solve residual small"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let g = 2 + Linalg.Rng.int rng 5 in
      let a = grid_laplacian g (Linalg.Rng.uniform rng 0.1 2.0) in
      let n = g * g in
      let b = Array.init n (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
      let r = Sparse.Csr.mul_vec a ((snd (ldlt a)) b) in
      let worst = ref 0.0 in
      Array.iteri (fun i ri -> worst := Float.max !worst (Float.abs (ri -. b.(i)))) r;
      !worst < 1e-9)

let prop_rcm_permutation =
  QCheck.Test.make ~count:30 ~name:"rcm: output is a permutation"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let n = 1 + Linalg.Rng.int rng 40 in
      let tr = Sparse.Triplet.create n n in
      for i = 0 to n - 1 do
        Sparse.Triplet.add tr i i 1.0
      done;
      for _ = 1 to 2 * n do
        let i = Linalg.Rng.int rng n and j = Linalg.Rng.int rng n in
        if i <> j then Sparse.Triplet.add_sym tr i j 0.5
      done;
      let perm = Sparse.Rcm.order (Sparse.Csr.of_triplet tr) in
      let seen = Array.make n false in
      Array.iter (fun p -> seen.(p) <- true) perm;
      Array.length perm = n && Array.for_all Fun.id seen)

let () =
  let qsuite =
    List.map (fun t -> Qtest.to_alcotest t)
      [ prop_spmv_matches_dense; prop_ldlt_solve; prop_rcm_permutation ]
  in
  Alcotest.run "sparse"
    [
      ( "triplet",
        [
          Alcotest.test_case "merge duplicates" `Quick test_triplet_merge;
          Alcotest.test_case "bounds check" `Quick test_triplet_bounds;
        ] );
      ( "csr",
        [
          Alcotest.test_case "dense roundtrip" `Quick test_csr_dense_roundtrip;
          Alcotest.test_case "spmv" `Quick test_csr_spmv;
          Alcotest.test_case "transpose" `Quick test_csr_transpose;
          Alcotest.test_case "add/scale" `Quick test_csr_add_scale;
          Alcotest.test_case "symmetry check" `Quick test_csr_symmetric;
          Alcotest.test_case "symmetric permute" `Quick test_csr_permute_sym;
          Alcotest.test_case "bandwidth/profile" `Quick test_csr_bandwidth_profile;
        ] );
      ( "rcm",
        [
          Alcotest.test_case "reduces profile" `Quick test_rcm_reduces_profile;
          Alcotest.test_case "chain bandwidth" `Quick test_rcm_chain_bandwidth;
          Alcotest.test_case "disconnected graph" `Quick test_rcm_disconnected;
        ] );
      ( "sparse_ldlt",
        [
          Alcotest.test_case "real solve" `Quick test_ldlt_real_solve;
          Alcotest.test_case "matches dense" `Quick test_ldlt_matches_dense;
          Alcotest.test_case "indefinite" `Quick test_ldlt_indefinite;
          Alcotest.test_case "singular raises" `Quick test_ldlt_singular_raises;
          Alcotest.test_case "complex symmetric" `Quick test_ldlt_complex;
          Alcotest.test_case "rcm reduces fill" `Quick test_ldlt_rcm_fill;
          Alcotest.test_case "fill reported" `Quick test_ldlt_fill_reported;
        ] );
      ("properties", qsuite);
    ]
