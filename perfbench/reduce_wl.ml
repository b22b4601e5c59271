(* grid_reduce and rlck_reduce: netlist text -> reduced (and, for
   rlck_reduce, certified) models, in this process, through the
   library's public entry points.

   One operation = parse, MNA, pencil context, factor at the resolved
   shift, then reduce (+ certify) per engine; its latency covers those
   calls only. Each call into the library is one request: attempted
   and failed requests give ok_frac. The exact-AC sweep of rlck_reduce
   is a request outside the operation's latency.

   latency_ms is the fastest operation of the run. The operations are
   deterministic, so interference from the rest of the host can only
   add time to them. On a shared 2-vCPU host that interference comes
   in phases of tens of seconds that slow these operations by up to
   1.5x while a pure-compute loop stays within a few per cent. A run's
   median and mean follow the share of its window that fell in such
   phases, and between runs of the same code they spread by more than
   25 %; its fastest operation spreads by about half that. The
   quartiles, the per-input medians and the model rate stay in the
   provenance line.

   Set-up samples run in fresh processes (this executable with
   --setup-child): spawn until the child has started the pool and
   finished one operation on a small fixed input.

   Each workload has a fixed input deck. The seed only shuffles its
   order; the run stops at a whole pass over the deck, so every run
   does the same work in a different order. *)

module D = Circuit.Diagnostic
module R = Report
module J = Serve.Json

type spec = {
  name : string;
  engines : Sympvl.Rom.engine list;
  order : int;
  certify : bool;  (** certify every model: the reduce --certify flow *)
  exact_ac : bool;  (** one exact-AC sweep per operation, after it *)
  deck : (string * Circuit.Netlist.t) array Lazy.t;
      (** built only by the measuring process, not by set-up children *)
  warm : Circuit.Netlist.t;  (** small fixed input for the set-up warm-up *)
  check_freqs : float array;  (** Hz, where the truncation error dominates rounding *)
  tol : float;  (** max relative deviation of a model at a check point *)
  reference : Circuit.Mna.t -> float array -> Linalg.Cmat.t array;
      (** exact Z(j2πf) at the check points, computed once per deck
          input before the clock starts *)
}

let jw f = { Complex.re = 0.0; im = 2.0 *. Float.pi *. f }

(* Exact Z(jω) = Bᵀ(G + jωC)⁻¹B by a dense complex LU, independent of
   the sparse factor paths (general form: unit gain, variable s). *)
let dense_reference (m : Circuit.Mna.t) freqs =
  (match (m.Circuit.Mna.gain, m.Circuit.Mna.variable) with
  | Circuit.Mna.Unit, Circuit.Mna.S -> ()
  | _ -> invalid_arg "dense_reference: general-form pencil expected");
  let g = Sparse.Csr.to_dense m.Circuit.Mna.g and c = Sparse.Csr.to_dense m.Circuit.Mna.c in
  let b = Linalg.Cmat.of_real m.Circuit.Mna.b in
  let bt = Linalg.Cmat.transpose b in
  Array.map
    (fun f -> Linalg.Cmat.mul bt (Linalg.Cmat.solve (Linalg.Cmat.lincomb Complex.one g (jw f) c) b))
    freqs

(* Exact Z(jω) of an RC grid through the sparse AC path (no Krylov
   projection involved). *)
let sweep_reference m freqs =
  (Simulate.Ac.sweep_ws m (Sympvl.Pencil.create m) freqs).Simulate.Ac.z

(* 2-D RC grids of about 10⁴ unknowns with four pads on the top and
   four on the bottom row (8 ports), in three topologies × three R/C
   value corners. Order 64 matches the response to rounding level up
   to ~50 GHz; at 0.5 and 1 THz the truncation error (2e-5 and 5e-4
   at nominal values, 6.9e-4 worst over the deck) dominates, so the
   check points sit there and the tolerance is four times the worst
   error the deck shows. *)
let grid_spec ~tiny =
  let shapes = if tiny then [ (10, 12); (12, 10) ] else [ (96, 104); (100, 100); (104, 96) ] in
  let corners = [ (1.0, 1.0); (1.2, 0.9); (0.85, 1.1) ] in
  let grid ?(r = 1.0) ?(c = 1.0) (rows, cols) =
    Circuit.Generators.rc_grid ~r_per_edge:(2.0 *. r) ~c_per_node:(10e-15 *. c)
      ~pitch_pads:((cols + 3) / 4) ~rows ~cols ()
  in
  {
    name = "grid_reduce";
    engines = [ `Sympvl ];
    order = 64;
    certify = false;
    exact_ac = false;
    deck =
      lazy
        (Array.of_list
           (List.concat_map
              (fun (rows, cols) ->
                List.map
                  (fun (r, c) ->
                    ( Printf.sprintf "rc_grid %dx%d R x%.2f C x%.2f" rows cols r c,
                      grid ~r ~c (rows, cols) ))
                  corners)
              shapes));
    warm = grid (12, 12);
    check_freqs = [| 5e11; 1e12 |];
    tol = 3e-3;
    reference = sweep_reference;
  }

(* peec_partial, 8 conductors × 30 segments (N = 728, 4 ports), in
   three value corners, reduced by SPRIM and PRIMA at order 40 and
   certified. At 100 MHz both models match to 6e-13, which is
   rounding; at 0.5 and 1 GHz the truncation error is 1e-5 and
   7e-4 (SPRIM) / 3e-3 (PRIMA) at nominal values, 4.8e-3 worst over
   the deck, so the check points sit there and the tolerance is four
   times the worst error the deck shows. *)
let rlck_spec ~tiny =
  let conductors, segments = if tiny then (4, 10) else (8, 30) in
  {
    name = "rlck_reduce";
    engines = [ `Sprim; `Prima ];
    order = 40;
    certify = true;
    exact_ac = true;
    deck =
      lazy
        (Array.map
           (fun scale ->
             let r_segment = 0.05 *. scale and c_node = 2e-13 /. scale in
             ( Printf.sprintf "peec_partial %dx%d r=%g c=%g" conductors segments r_segment c_node,
               Circuit.Generators.peec_partial ~r_segment ~c_node ~conductors ~segments () ))
           [| 0.9; 1.0; 1.1 |]);
    warm = Circuit.Generators.peec_partial ~conductors:2 ~segments:8 ();
    check_freqs = [| 5e8; 1e9 |];
    tol = 2e-2;
    reference = dense_reference;
  }

type request = { call : string; dt : float; mutable ok : bool }

type outcome = {
  input : string;  (** deck input label *)
  latency : float;  (** seconds, parse through the last reduce/certify *)
  requests : request list;
  models : int;  (** models within tolerance and without certification errors *)
  max_err : float;  (** worst model deviation over the check points *)
  nonclean : int;  (** certification warnings and errors *)
  checks : int;  (** output checks that ran *)
  wrong : int;  (** outputs that ran but are wrong *)
  ac_failed : bool;
}

let rel_err (want : Linalg.Cmat.t) (got : Linalg.Cmat.t) =
  Linalg.Cmat.dist_max got want /. Float.max (Linalg.Cmat.max_abs want) 1e-300

let exn_text e =
  let s = Printexc.to_string e in
  if String.length s > 160 then String.sub s 0 160 else s

(* the exact sparse AC analysis may differ from the dense reference
   only by rounding *)
let exact_tol = 1e-6

(* one timed request into [reqs]: its result, and its record *)
let call spec ~opi ~label reqs name f =
  let t0 = R.now () in
  let record ok =
    let r = { call = name; dt = R.now () -. t0; ok } in
    reqs := r :: !reqs;
    r
  in
  match Spans.with_ ~op:opi name f with
  | v -> (v, record true)
  | exception e ->
    ignore (record false);
    R.note "%s op %d (%s): %s raised %s" spec.name opi label name (exn_text e);
    raise e

type flow = {
  m : Circuit.Mna.t;
  ctx : Sympvl.Pencil.t;
  built :
    (Sympvl.Rom.engine
    * Sympvl.Rom.model
    * request
    * (Sympvl.Certify.report * request) option option)
    list;
      (** per engine: model, its request, certification (None when not
          certified, Some None when certification raised) *)
}

(* the timed part of one operation on [text] (emitted before the clock
   started): its latency and what it built, None when a call raised *)
let perform spec ~opi ~label reqs text =
  let call name f = call spec ~opi ~label reqs name f in
  let t0 = R.now () in
  let flow =
    match
      let nl, _ = call "parser" (fun () -> Circuit.Parser.parse_string text) in
      let m, _ = call "mna" (fun () -> Circuit.Mna.auto nl) in
      let ctx, _ = call "pencil.create" (fun () -> Sympvl.Pencil.create m) in
      ignore (call "factor" (fun () -> Sympvl.Pencil.with_auto_shift ctx (fun _ _ -> ())));
      let built =
        List.filter_map
          (fun eng ->
            let rom = "rom." ^ Sympvl.Rom.name eng in
            match call rom (fun () -> Sympvl.Rom.reduce ~ctx ~order:spec.order eng m) with
            | model, req ->
              let cert =
                if spec.certify then
                  match call "certify" (fun () -> Sympvl.Certify.run ~ctx model m) with
                  | rep -> Some (Some rep)
                  | exception _ -> Some None
                else None
              in
              Some (eng, model, req, cert)
            | exception _ -> None)
          spec.engines
      in
      { m; ctx; built }
    with
    | v -> Some v
    | exception _ -> None
  in
  (R.now () -. t0, flow)

(* output checks of one performed operation against the exact answers
   [want] at the check points, outside its latency, then the exact-AC
   request; a wrong output fails the request that produced it *)
let check spec ~opi ~label reqs ~want (latency, flow) =
  let models = ref 0 and max_err = ref 0.0 and nonclean = ref 0 and checks = ref 0 in
  let wrong = ref 0 and ac_failed = ref false in
  let fail req =
    incr wrong;
    req.ok <- false
  in
  (match flow with
  | None -> ()
  | Some { m; ctx; built } ->
    List.iter
      (fun (eng, model, rom_req, cert) ->
        let name = Sympvl.Rom.name eng in
        let err =
          Array.fold_left Float.max 0.0
            (Array.mapi (fun i f -> rel_err want.(i) (Sympvl.Rom.eval model (jw f))) spec.check_freqs)
        in
        incr checks;
        max_err := Float.max !max_err err;
        let within = err <= spec.tol in
        if not within then begin
          R.note "%s op %d (%s): %s deviates %.3e > %.1e" spec.name opi label name err spec.tol;
          fail rom_req
        end;
        let certified =
          match cert with
          | None -> true
          | Some None -> false
          | Some (Some (rep, cert_req)) ->
            let fs = rep.Sympvl.Certify.findings in
            nonclean := !nonclean + List.length fs - D.count D.Info fs;
            incr checks;
            if D.count D.Error fs > 0 then begin
              R.note "%s op %d (%s): %s certification errors" spec.name opi label name;
              fail cert_req;
              false
            end
            else true
        in
        if within && certified then incr models)
      built;
    (* the exact-AC request runs after the operation: outside its
       latency; its output, when there is one, must match the
       reference *)
    if spec.exact_ac then
      match
        call spec ~opi ~label reqs "ac" (fun () -> Simulate.Ac.sweep_ws m ctx spec.check_freqs)
      with
      | sw, ac_req ->
        incr checks;
        let err =
          Array.fold_left Float.max 0.0 (Array.mapi (fun i z -> rel_err want.(i) z) sw.Simulate.Ac.z)
        in
        if err > exact_tol then begin
          R.note "%s op %d (%s): exact AC deviates %.3e from the reference" spec.name opi label err;
          fail ac_req
        end
      | exception _ -> ac_failed := true);
  {
    input = label;
    latency;
    requests = List.rev !reqs;
    models = !models;
    max_err = !max_err;
    nonclean = !nonclean;
    checks = !checks;
    wrong = !wrong;
    ac_failed = !ac_failed;
  }

let run_op spec ~opi ~label ~want text =
  let reqs = ref [] in
  check spec ~opi ~label reqs ~want (perform spec ~opi ~label reqs text)

let spec_of ~tiny ~which =
  if String.equal which "grid_reduce" then grid_spec ~tiny else rlck_spec ~tiny

let warm_want spec text =
  spec.reference (Circuit.Mna.auto (Circuit.Parser.parse_string text)) spec.check_freqs

(* The set-up child: start the library's pool, run one operation on
   the small fixed input, print "ready" (the parent's clock stops
   there), then check the operation's output; exit 1 when it is wrong. *)
let setup_child ~tiny ~which =
  let spec = spec_of ~tiny ~which in
  let text = Emit.netlist spec.warm in
  ignore (Parallel.get ());
  let reqs = ref [] in
  let done_ = perform spec ~opi:(-1) ~label:"warm-up" reqs text in
  print_endline "ready";
  let o = check spec ~opi:(-1) ~label:"warm-up" reqs ~want:(warm_want spec text) done_ in
  exit (if o.models = List.length spec.engines && o.wrong = 0 then 0 else 1)

(* one set-up sample: seconds from spawning a set-up child to its
   "ready" line; fails unless the child then exits 0 *)
let setup_sample ~tiny ~which =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args = [ exe; "--workload"; which; "--setup-child" ] @ if tiny then [ "--tiny" ] else [] in
  let t0 = R.now () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let first = In_channel.input_line ic in
  let dt = R.now () -. t0 in
  let rest = In_channel.input_all ic in
  close_in ic;
  match (first, snd (Unix.waitpid [] pid)) with
  | Some "ready", Unix.WEXITED 0 -> dt
  | _ -> failwith ("set-up child failed: " ^ Option.value ~default:"" first ^ "\n" ^ rest)

(* program counters read after each traced operation; the gauge
   [sprim.krylov_cols] is read as its latest value *)
let counter_names =
  [
    "factor.count"; "factor.nnz"; "skyline.flops_est"; "factor.fallback_dense";
    "pencil.cache_hit"; "pencil.cache_miss"; "lanczos.deflations"; "lanczos.clusters_closed";
    "certify.violation_band"; "ac.points";
  ]

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.major_collections)

let run ~tiny ~which ~seed ~seconds ~trace =
  let spec = spec_of ~tiny ~which in
  let deck = Lazy.force spec.deck in
  let rng = Linalg.Rng.create seed in
  (* untimed: netlist text and exact answers for every deck input *)
  let inputs =
    Array.map
      (fun (label, nl) ->
        let text = Emit.netlist nl in
        let m = Circuit.Mna.auto (Circuit.Parser.parse_string text) in
        (label, text, spec.reference m spec.check_freqs))
      deck
  in
  (* untimed warm-up: pool start and one operation on the small input *)
  ignore (Parallel.get ());
  let warm_text = Emit.netlist spec.warm in
  let o = run_op spec ~opi:(-1) ~label:"warm-up" ~want:(warm_want spec warm_text) warm_text in
  if o.models <> List.length spec.engines then failwith (spec.name ^ ": warm-up operation failed");
  R.reset_peak_rss ();
  let probes = ref [ R.probe () ] in
  let setups = ref [ setup_sample ~tiny ~which ] in
  let setup_every = seconds /. 10.0 in
  Spans.on := false;
  let counters = Hashtbl.create 16 and krylov_cols = ref 0.0 in
  let gc_alloc = ref 0.0 and gc_major = ref 0 in
  let outcomes = ref [] and traced = ref [] and plain = ref [] in
  let window = ref 0.0 and next_setup = ref setup_every and mid_probe = ref false in
  let opi = ref 0 and passes = ref 0 in
  let pass_s = ref 0.0 in
  (* whole passes over the deck until the window is (about) full *)
  while !passes = 0 || !window +. (!pass_s /. 2.0) < seconds do
    let order = Array.init (Array.length inputs) Fun.id in
    R.shuffle rng order;
    let pass_start = !window in
    Array.iter
      (fun k ->
        let label, text, want = inputs.(k) in
        let t_op = R.now () in
        (* every operation starts from the same heap state *)
        Gc.compact ();
        let is_traced = trace && !opi mod 2 = 1 in
        if is_traced then begin
          Obs.reset ();
          Obs.enable ();
          Spans.on := true
        end;
        let w0, maj0 = gc_words () in
        let o = Spans.with_ ~op:!opi "op" (fun () -> run_op spec ~opi:!opi ~label ~want text) in
        if is_traced then begin
          let w1, maj1 = gc_words () in
          Spans.on := false;
          Obs.disable ();
          gc_alloc := !gc_alloc +. ((w1 -. w0) *. float_of_int (Sys.word_size / 8) /. 1e6);
          gc_major := !gc_major + maj1 - maj0;
          List.iter
            (fun c ->
              Hashtbl.replace counters c
                (Obs.counter_value c +. Option.value ~default:0.0 (Hashtbl.find_opt counters c)))
            counter_names;
          krylov_cols :=
            !krylov_cols +. Option.value ~default:0.0 (Obs.gauge_value "sprim.krylov_cols");
          traced := o :: !traced
        end
        else plain := o :: !plain;
        outcomes := o :: !outcomes;
        incr opi;
        window := !window +. (R.now () -. t_op);
        if (not !mid_probe) && !window >= seconds /. 2.0 then begin
          mid_probe := true;
          probes := R.probe () :: !probes
        end;
        if !window >= !next_setup then begin
          next_setup := !window +. setup_every;
          setups := setup_sample ~tiny ~which :: !setups
        end)
      order;
    incr passes;
    pass_s := !window -. pass_start
  done;
  probes := R.probe () :: !probes;
  let outcomes = Array.of_list (List.rev !outcomes) in
  let ops = Array.length outcomes in
  let isum f = Array.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let reqs = Array.of_list (List.concat_map (fun o -> o.requests) (Array.to_list outcomes)) in
  let req_failed = Array.fold_left (fun acc r -> if r.ok then acc else acc + 1) 0 reqs in
  let op_lat = Array.map (fun o -> o.latency) outcomes in
  let models = isum (fun o -> o.models) in
  let checks = isum (fun o -> o.checks) and wrong = isum (fun o -> o.wrong) in
  let ac_failed = isum (fun o -> if o.ac_failed then 1 else 0) in
  let max_err = Array.fold_left (fun acc o -> Float.max acc o.max_err) 0.0 outcomes in
  (* an operation fails when one of its own requests fails; the
     exact-AC request after it is counted in ok_frac only *)
  let op_failed =
    isum (fun o -> if List.exists (fun r -> (not r.ok) && r.call <> "ac") o.requests then 1 else 0)
  in
  let setups = Array.of_list !setups in
  R.provenance ~workload:spec.name ~seed ~tiny ~trace
    [
      ("pool_jobs", R.jint (Parallel.jobs ()));
      ("deck", J.List (Array.to_list (Array.map (fun (l, _) -> J.Str l) deck)));
      ("engines", J.List (List.map (fun e -> J.Str (Sympvl.Rom.name e)) spec.engines));
      ("order", R.jint spec.order);
      ("check_freqs_hz", J.List (Array.to_list (Array.map R.jnum spec.check_freqs)));
      ("tol", R.jnum spec.tol);
      ("passes", R.jint !passes);
      ("ops", R.jint ops);
      ("window_s", R.jnum !window);
      ("op_latency", R.latency_summary op_lat);
      ("models_per_s", R.jnum (float_of_int models /. R.sum op_lat));
      ( "op_latency_p50_s_by_input",
        J.Obj
          (Array.to_list
             (Array.map
                (fun (label, _, _) ->
                  ( label,
                    R.jnum
                      (R.median
                         (Array.of_list
                            (List.filter_map
                               (fun o -> if String.equal o.input label then Some o.latency else None)
                               (Array.to_list outcomes)))) ))
                inputs)) );
      ("setup_samples", J.List (Array.to_list (Array.map R.jnum setups)));
      ("host_probe_s", J.List (List.rev_map R.jnum !probes));
      ("output_checks", R.jint checks);
    ];
  R.note "%s: %d operations in %d passes, %d models, latency p50 %.1f ms (%d ops)" spec.name ops
    !passes models
    (1e3 *. R.median op_lat)
    ops;
  R.note "%s: %d requests, %d failed (%d exact-AC sweeps), %d output checks, %d wrong, max_rel_err %.3e"
    spec.name (Array.length reqs) req_failed ac_failed checks wrong max_err;
  let values =
    if not trace then
      [
        ("setup_s", R.median setups);
        ("latency_ms", 1e3 *. R.minimum op_lat);
        ("max_rel_err", max_err);
        ("ok_frac", 1.0 -. (float_of_int req_failed /. float_of_int (Array.length reqs)));
        ("peak_rss_mb", R.peak_rss_mb None);
      ]
    else begin
      let self = Spans.self_times () in
      let traced_ops = List.length !traced in
      let per_op v = v /. float_of_int traced_ops in
      let counter c = per_op (Option.value ~default:0.0 (Hashtbl.find_opt counters c)) in
      let isum_traced f = List.fold_left (fun acc o -> acc + f o) 0 !traced in
      Spans.write_chrome (Printf.sprintf ".perfbench/trace-%s-%d.json" spec.name seed);
      [
        ("parser.busy_s", per_op (Spans.self_s self "parser"));
        ( "parser.bytes",
          R.mean (Array.map (fun (_, text, _) -> float_of_int (String.length text)) inputs) );
        ("mna.busy_s", per_op (Spans.self_s self "mna"));
        ("pencil.create_s", per_op (Spans.self_s self "pencil.create"));
        ("factor.busy_s", per_op (Spans.self_s self "factor"));
        ("rom.sympvl.busy_s", per_op (Spans.self_s self "rom.sympvl"));
        ("rom.sprim.busy_s", per_op (Spans.self_s self "rom.sprim"));
        ("rom.prima.busy_s", per_op (Spans.self_s self "rom.prima"));
        ("sprim.krylov_cols", per_op !krylov_cols);
        ("certify.busy_s", per_op (Spans.self_s self "certify"));
        ("certify.nonclean_findings", per_op (float_of_int (isum_traced (fun o -> o.nonclean))));
        ("ac.busy_s", per_op (Spans.self_s self "ac"));
        ( "ac.failed_sweeps",
          per_op (float_of_int (isum_traced (fun o -> if o.ac_failed then 1 else 0))) );
        ("gc.alloc_mb", per_op !gc_alloc);
        ("gc.major_collections", per_op (float_of_int !gc_major));
        ("trace.ops", float_of_int traced_ops);
        ( "trace.overhead_frac",
          let lat l = R.mean (Array.of_list (List.map (fun o -> o.latency) l)) in
          (lat !traced /. lat !plain) -. 1.0 );
      ]
      @ List.map (fun c -> (c, counter c)) counter_names
    end
  in
  (ops, op_failed, checks, wrong, values)
