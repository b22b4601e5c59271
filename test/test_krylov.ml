(* Tests for the shared Krylov-projection kernel behind PRIMA,
   multipoint PRIMA and SPRIM.

   1. One builder: a one-point multipoint reduction equals the
      single-point reduction at the order it reaches, bitwise.
   2. No dense N×N work: PRIMA at order 40 on a 3 600-unknown grid
      (factor cached) allocates less than one dense N×N matrix.
   3. Every basis the kernel returns is orthonormal to 1e-12.
   4. The sparse congruence is exactly symmetric and agrees with the
      dense WᵀMW. *)

module Arnoldi = Sympvl.Arnoldi
module Krylov = Sympvl.Krylov
module Mat = Linalg.Mat

let find_path cands =
  match List.find_opt Sys.file_exists cands with Some p -> p | None -> List.hd cands

let mna_of base =
  Circuit.Mna.auto
    (Circuit.Parser.parse_file
       (find_path
          [ "../examples/netlists/" ^ base ^ ".cir"; "examples/netlists/" ^ base ^ ".cir" ]))

let examples = [ "rc_line"; "coupled_lines"; "peec_coupled" ]

let gram w = Mat.init (Array.length w) (Array.length w) (fun i j -> Linalg.Vec.dot w.(i) w.(j))

let check_orthonormal what w =
  let k = Array.length w in
  let err = if k = 0 then 0.0 else Mat.dist_max (gram w) (Mat.identity k) in
  if err > 1e-12 then Alcotest.failf "%s: ‖WᵀW − I‖ = %.3e" what err

(* ------------------------------------------------------------------ *)
(* 1. one builder                                                      *)

let test_one_point_is_reduce () =
  List.iter
    (fun base ->
      let m = mna_of base in
      let s0 = Arnoldi.shift_of_hz m 1e8 in
      let multi = Arnoldi.reduce_multipoint ~points:[ (s0, 3) ] m in
      let single = Arnoldi.reduce ~shift:s0 ~order:multi.Arnoldi.order m in
      let same what x y =
        Alcotest.(check bool) (base ^ ": " ^ what ^ " bitwise equal") true (x = y)
      in
      Alcotest.(check bool) (base ^ ": nonempty") true (multi.Arnoldi.order > 0);
      same "order" multi.Arnoldi.order single.Arnoldi.order;
      same "ghat" multi.Arnoldi.ghat.Mat.a single.Arnoldi.ghat.Mat.a;
      same "chat" multi.Arnoldi.chat.Mat.a single.Arnoldi.chat.Mat.a;
      same "bhat" multi.Arnoldi.bhat.Mat.a single.Arnoldi.bhat.Mat.a)
    [ "rc_line"; "peec_coupled" ]

(* ------------------------------------------------------------------ *)
(* 2. allocation bound                                                 *)

let test_prima_allocation () =
  let m = Circuit.Mna.assemble_rc (Circuit.Generators.rc_grid ~rows:60 ~cols:60 ()) in
  let n = m.Circuit.Mna.n in
  Alcotest.(check int) "N" 3600 n;
  let ctx = Sympvl.Pencil.create m in
  ignore (Sympvl.Pencil.factor ctx ~shift:0.0);
  let before = Gc.allocated_bytes () in
  let r = Arnoldi.reduce ~ctx ~shift:0.0 ~order:40 m in
  let used = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "order reached" 40 r.Arnoldi.order;
  let dense = float_of_int (n * n * 8) in
  if used >= dense then
    Alcotest.failf "PRIMA allocated %.1f MB, not below one dense N×N matrix (%.1f MB)"
      (used /. 1e6) (dense /. 1e6)

(* ------------------------------------------------------------------ *)
(* 3. orthonormal bases                                                *)

let test_bases_orthonormal () =
  List.iter
    (fun base ->
      let m = mna_of base in
      let ctx = Sympvl.Pencil.create m in
      let s1 = Arnoldi.shift_of_hz m 1e8 and s2 = Arnoldi.shift_of_hz m 3e9 in
      let f1 = Sympvl.Pencil.factor ctx ~shift:s1 in
      let f2 = Sympvl.Pencil.factor ctx ~shift:s2 in
      check_orthonormal (base ^ " single point") (Krylov.basis ~cap:8 m [ (f1, 8) ]);
      check_orthonormal (base ^ " two points") (Krylov.basis m [ (f1, 3); (f2, 3) ]);
      (* the split halves SPRIM projects with *)
      if m.Circuit.Mna.n > m.Circuit.Mna.n_nodes then begin
        let v = Krylov.basis ~cap:m.Circuit.Mna.n m [ (f1, m.Circuit.Mna.n) ] in
        let nn = m.Circuit.Mna.n_nodes in
        let q, rank =
          Linalg.Qr.orthonormalize (Mat.init nn (Array.length v) (fun i j -> v.(j).(i)))
        in
        check_orthonormal (base ^ " node half") (Array.init rank (Mat.col q))
      end)
    examples

(* ------------------------------------------------------------------ *)
(* 4. sparse congruence                                                *)

let test_congruence () =
  List.iter
    (fun base ->
      let m = mna_of base in
      let ctx = Sympvl.Pencil.create m in
      let f = Sympvl.Pencil.factor ctx ~shift:(Arnoldi.shift_of_hz m 1e8) in
      let w = Krylov.basis ~cap:6 m [ (f, 6) ] in
      let wm = Mat.init m.Circuit.Mna.n (Array.length w) (fun i j -> w.(j).(i)) in
      List.iter
        (fun (what, a) ->
          let r = Krylov.congruence a w in
          Alcotest.(check (float 0.0))
            (base ^ ": " ^ what ^ " exactly symmetric")
            0.0
            (Mat.dist_max r (Mat.transpose r));
          let d = Mat.congruence wm (Sparse.Csr.to_dense a) in
          let err = Mat.dist_max r d /. Float.max (Mat.max_abs d) 1e-300 in
          if err > 1e-12 then Alcotest.failf "%s: %s differs from dense by %.3e" base what err)
        [ ("WᵀGW", m.Circuit.Mna.g); ("WᵀCW", m.Circuit.Mna.c) ])
    examples

let () =
  Alcotest.run "krylov"
    [
      ( "kernel",
        [
          Alcotest.test_case "one-point multipoint = reduce (bitwise)" `Quick
            test_one_point_is_reduce;
          Alcotest.test_case "PRIMA allocates below one dense N×N" `Quick
            test_prima_allocation;
          Alcotest.test_case "bases orthonormal" `Quick test_bases_orthonormal;
          Alcotest.test_case "sparse congruence" `Quick test_congruence;
        ] );
    ]
