(* Tests for the parallel AC engine: the domain pool, bitwise
   determinism of the pooled sweep, and symbolic-reuse regressions. *)

(* ------------------------------------------------------------------ *)
(* Parallel.Pool                                                      *)

let test_pool_map_matches_init () =
  List.iter
    (fun jobs ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          let got = Parallel.Pool.parallel_map pool 257 (fun i -> (i * i) - 3) in
          let want = Array.init 257 (fun i -> (i * i) - 3) in
          Alcotest.(check bool)
            (Printf.sprintf "map = init at jobs=%d" jobs)
            true (got = want)))
    [ 1; 2; 4 ]

let test_pool_for_covers_once () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let hits = Array.make 1000 0 in
      (* each slot is written by exactly one iteration *)
      Parallel.Pool.parallel_for pool ~chunk:7 1000 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

exception Boom

let test_pool_exception_propagates () =
  Parallel.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check bool) "raises" true
        (try
           Parallel.Pool.parallel_for pool 100 (fun i -> if i = 57 then raise Boom);
           false
         with Boom -> true);
      (* the pool survives the failed batch *)
      let a = Parallel.Pool.parallel_map pool 10 (fun i -> i) in
      Alcotest.(check bool) "usable after exception" true (a = Array.init 10 Fun.id))

let test_pool_nested_degrades () =
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let out = Array.make 12 (-1) in
      Parallel.Pool.parallel_for pool 4 (fun i ->
          (* nested use of the same pool must run sequentially, not
             deadlock *)
          Parallel.Pool.parallel_for pool 3 (fun j -> out.((3 * i) + j) <- (3 * i) + j));
      Alcotest.(check bool) "nested loops completed" true
        (out = Array.init 12 Fun.id))

let test_default_jobs_positive () =
  Alcotest.(check bool) "default jobs >= 1" true (Parallel.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* bitwise determinism of the pooled sweep                             *)

let bits_equal_cmat p a b =
  let eq_f x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let ok = ref true in
  for i = 0 to p - 1 do
    for j = 0 to p - 1 do
      let x = Linalg.Cmat.get a i j and y = Linalg.Cmat.get b i j in
      if not (eq_f x.Complex.re y.Complex.re && eq_f x.Complex.im y.Complex.im) then
        ok := false
    done
  done;
  !ok

let sweeps_bitwise_equal (a : Simulate.Ac.sweep) (b : Simulate.Ac.sweep) =
  let p = Array.length a.Simulate.Ac.port_names in
  Array.length a.Simulate.Ac.z = Array.length b.Simulate.Ac.z
  && Array.for_all2 (bits_equal_cmat p) a.Simulate.Ac.z b.Simulate.Ac.z

(* cwd is the test directory under `dune runtest` but the workspace
   root under `dune exec` — accept either *)
let netlist_path base =
  let cands = [ "../examples/netlists/" ^ base; "examples/netlists/" ^ base ] in
  match List.find_opt Sys.file_exists cands with Some p -> p | None -> List.hd cands

let shipped_examples =
  List.map netlist_path
    [ "rc_line.cir"; "lc_tank.cir"; "rl_ladder.cir"; "coupled_lines.cir" ]

let test_sweep_bitwise_examples () =
  List.iter
    (fun path ->
      let mna = Circuit.Mna.auto (Circuit.Parser.parse_file path) in
      let freqs = Simulate.Ac.log_freqs ~points:23 1e6 1e10 in
      let seq = Simulate.Ac.sweep ~jobs:1 mna freqs in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s bitwise at jobs=%d" (Filename.basename path) jobs)
            true
            (sweeps_bitwise_equal seq (Simulate.Ac.sweep ~jobs mna freqs)))
        [ 1; 2; 4 ])
    shipped_examples

let test_sweep_bitwise_generator () =
  (* a larger p > 1 workload than the shipped decks *)
  let nl = Circuit.Generators.coupled_rc_bus ~terminate:250.0 ~wires:4 ~sections:15 () in
  let mna = Circuit.Mna.assemble_rc nl in
  let freqs = Simulate.Ac.log_freqs ~points:37 1e6 5e9 in
  let seq = Simulate.Ac.sweep ~jobs:1 mna freqs in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "rc bus bitwise at jobs=%d" jobs)
        true
        (sweeps_bitwise_equal seq (Simulate.Ac.sweep ~jobs mna freqs)))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* symbolic-reuse regression: a reused workspace gives the same Z      *)

let test_workspace_reuse_matches_fresh () =
  let nl = Circuit.Generators.package_model ~pins:8 ~signal_pins:4 ~sections:3 () in
  let mna = Circuit.Mna.assemble nl in
  let p = Array.length mna.Circuit.Mna.port_names in
  let ws = Simulate.Ac.workspace mna in
  List.iter
    (fun f ->
      let s = Linalg.Cx.im (2.0 *. Float.pi *. f) in
      (* same workspace used repeatedly vs a fresh symbolic phase *)
      let z_reused1 = Simulate.Ac.z_at_ws mna ws s in
      let z_reused2 = Simulate.Ac.z_at_ws mna ws s in
      let z_fresh = Simulate.Ac.z_at mna s in
      Alcotest.(check bool) "reuse deterministic" true (bits_equal_cmat p z_reused1 z_reused2);
      Alcotest.(check bool) "reuse = fresh" true (bits_equal_cmat p z_reused1 z_fresh))
    [ 1e7; 1e9; 7.3e9 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches init" `Quick test_pool_map_matches_init;
          Alcotest.test_case "for covers once" `Quick test_pool_for_covers_once;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "nested degrades" `Quick test_pool_nested_degrades;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shipped examples bitwise" `Quick test_sweep_bitwise_examples;
          Alcotest.test_case "rc bus bitwise" `Quick test_sweep_bitwise_generator;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "reuse = fresh factorisation" `Quick
            test_workspace_reuse_matches_fresh;
        ] );
    ]
