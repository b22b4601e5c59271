(* Metric names and units (read from BENCHMARK.json), statistics and
   the one-line JSON result.

   Every workload prints every end-to-end metric with tracing off and
   every per-layer metric with tracing on (0 where the layer does not
   run in that workload). *)

module J = Serve.Json

(* (name, unit) of every metric BENCHMARK.json declares under [kind]
   ("end_to_end" or "per_layer"); the benchmark runs from the root of
   the checkout, where that file lives *)
let declared kind =
  let bench = J.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  let field k m =
    match J.to_str_opt (J.member k m) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "BENCHMARK.json: %s metric without a %s" kind k)
  in
  match J.to_list_opt (J.member kind bench) with
  | Some ms -> List.map (fun m -> (field "name" m, field "unit" m)) ms
  | None -> failwith ("BENCHMARK.json: no " ^ kind ^ " list")

let now = Unix.gettimeofday

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile, [p] in [0, 1] *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "percentile of no samples"
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median a = percentile a 0.5

let minimum a = percentile a 0.0

(* a p90 is given only where at least ten samples lie beyond it *)
let min_tail_samples = 100

(* Fisher–Yates: the seed only ever reorders a fixed input deck *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Linalg.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let sum a = Array.fold_left ( +. ) 0.0 a

(* peak resident set (VmHWM) of a live process, in MB *)
let peak_rss_mb pid =
  let path =
    match pid with Some p -> Printf.sprintf "/proc/%d/status" p | None -> "/proc/self/status"
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* restart this process's VmHWM at its current resident set, so that
   what ran before (exact references, input generation) does not set
   the peak read at the end *)
let reset_peak_rss () =
  Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")

(* human-readable lines go to stdout before the result line *)
let note fmt = Printf.printf (fmt ^^ "\n%!")

let jnum v = J.Num v

let jint k = J.Num (float_of_int k)

(* Host speed probe: a fixed pure-compute loop, timed a few times at a
   point of the run. The medians at the start, middle and end of a run
   tell host drift apart from a program change; no metric is scaled by
   them. *)
let probe_loop () =
  let x = ref 1.0 in
  for i = 1 to 2_000_000 do
    x := (!x *. 1.000000001) +. Float.of_int (i land 7)
  done;
  Sys.opaque_identity !x

let probe () =
  median
    (Array.init 5 (fun _ ->
         let t0 = now () in
         ignore (probe_loop ());
         now () -. t0))

(* a latency sample for the provenance line: its size, minimum,
   quartiles and, from 100 samples on, its p90 *)
let latency_summary a =
  J.Obj
    ([
       ("n", jint (Array.length a));
       ("min_s", jnum (minimum a));
       ("q1_s", jnum (percentile a 0.25));
       ("q2_s", jnum (percentile a 0.5));
       ("q3_s", jnum (percentile a 0.75));
     ]
    @ if Array.length a >= min_tail_samples then [ ("p90_s", jnum (percentile a 0.9)) ] else [])

(* run provenance, printed once per run before the result line *)
let provenance ~workload ~seed ~tiny ~trace extra =
  note "provenance: %s"
    (J.to_string
       (J.Obj
          ([
             ("workload", J.Str workload);
             ("seed", jint seed);
             ("tiny", J.Bool tiny);
             ("trace", J.Bool trace);
             ("nproc", jint (Domain.recommended_domain_count ()));
             ("ocaml", J.Str Sys.ocaml_version);
           ]
          @ extra)))

(* the last stdout line: the result object, exactly these keys *)
let result ~trace ~correct ~attempted ~failed values =
  let names = declared (if trace then "per_layer" else "end_to_end") in
  let metric (name, unit_) =
    let v =
      match List.assoc_opt name values with
      | Some v -> v
      | None -> if trace then 0.0 else failwith ("metric not measured: " ^ name)
    in
    if not (Float.is_finite v) then failwith ("metric not finite: " ^ name);
    Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (J.to_string (J.Str name)) v
      (J.to_string (J.Str unit_))
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name names) then failwith ("metric not declared: " ^ name))
    values;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed
    (String.concat "," (List.map metric names))
