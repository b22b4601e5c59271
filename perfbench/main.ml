let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false and setup_child = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME grid_reduce | rlck_reduce | serve_mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--tiny", Arg.Set tiny, " tiny inputs (smoke test)");
      ("--setup-child", Arg.Set setup_child, " one set-up sample of an in-process workload");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main --workload NAME --seed N --seconds S --trace 0|1 [--tiny]";
  if !setup_child then Reduce_wl.setup_child ~tiny:!tiny ~which:!workload;
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace = !trace = 1 in
  let attempted, failed, checks, wrong, values =
    match !workload with
    | ("grid_reduce" | "rlck_reduce") as which ->
      Reduce_wl.run ~tiny:!tiny ~which ~seed:!seed ~seconds:!seconds ~trace
    | "serve_mix" -> Serve_wl.run ~tiny:!tiny ~seed:!seed ~seconds:!seconds ~trace
    | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
  in
  (* [failed] counts operations (requests for serve_mix) that raised or
     were refused; [correct] is false when an output that was produced
     is wrong (a model over tolerance, a certification error, a served
     payload that differs from the in-process reference) or when no
     output check ran *)
  Report.result ~trace ~correct:(wrong = 0 && checks > 0) ~attempted ~failed values
