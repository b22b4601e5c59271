(* serve_mix: one bench process drives a `symor serve` daemon over two
   closed-loop connections (each sends its next request only after the
   previous response; a pair of overlapping AC windows goes out
   together). The mix: reduce, certify, ac and tran requests
   over value-perturbed corner variants of two circuits (same topology,
   new element values), exact repeats, and AC windows that overlap
   earlier ones on a shared frequency grid. Every response is compared
   with an in-process reference computed afterwards with the same
   library calls the daemon makes. *)

module J = Serve.Json
module R = Report

(* load stays within the 2-core host: 2 client connections, 2 daemon
   jobs *)
let clients = 2

let daemon_jobs = 2

let cache_entries = 6

type base = {
  bname : string;
  nl : Circuit.Netlist.t;
  grid : float array;  (** master AC grid; requests take 16-point windows *)
  order : int;  (** reduce requests *)
  certify_order : int;
  dt : float;
  t_stop : float;
}

let bases ~tiny =
  let pkg =
    if tiny then Circuit.Generators.package_model ~pins:4 ~sections:3 ~signal_pins:2 ()
    else Circuit.Generators.package_model ~pins:12 ~sections:6 ~signal_pins:4 ()
  in
  let bus =
    if tiny then Circuit.Generators.coupled_rc_bus ~terminate:50.0 ~wires:3 ~sections:10 ()
    else Circuit.Generators.coupled_rc_bus ~terminate:50.0 ~wires:8 ~sections:60 ()
  in
  [|
    { bname = "package_model"; nl = pkg; grid = Simulate.Ac.log_freqs ~points:48 1e7 3e9;
      order = 32; certify_order = 16; dt = 1e-11; t_stop = 5e-10 };
    { bname = "coupled_rc_bus"; nl = bus; grid = Simulate.Ac.log_freqs ~points:48 1e6 1e9;
      order = 32; certify_order = 32; dt = 1e-11; t_stop = 5e-10 };
  |]

type variant = { base : base; text : string; observe : string; label : string }

(* four value corners per circuit (R, C, L scale factors): same
   topology, new element values, so every corner is its own cache entry *)
let corner_scales = [| (1.0, 1.0, 1.0); (1.08, 0.95, 1.0); (0.93, 1.06, 0.97); (1.05, 1.05, 1.05) |]

let corners = Array.length corner_scales

let variants bs =
  Array.concat
    (Array.to_list
       (Array.map
          (fun b ->
            let port = List.hd (Circuit.Netlist.ports b.nl) in
            let node = Emit.node port.Circuit.Netlist.plus in
            let extra = Printf.sprintf "Idrv 0 %s PULSE(0,1m,0,20p,20p,400p,1n)\n" node in
            Array.map
              (fun (fr, fc, fl) ->
                let scale = function `R -> fr | `C -> fc | `L -> fl in
                {
                  base = b;
                  text = Emit.netlist ~scale ~extra b.nl;
                  observe = node;
                  label = Printf.sprintf "%s (R x%.2f, C x%.2f, L x%.2f)" b.bname fr fc fl;
                })
              corner_scales)
          bs))

type op = Reduce | Certify | Ac of int | Tran

let op_name = function Reduce -> "reduce" | Certify -> "certify" | Ac _ -> "ac" | Tran -> "tran"

let window = 16

(* one request template: a variant and an op; the wire line differs
   between repeats only in its id *)
let request_json ~id ~trace (v : variant) op =
  let common =
    [ ("id", J.Num (float_of_int id)); ("op", J.Str (op_name op)); ("netlist", J.Str v.text) ]
  in
  let body =
    match op with
    | Reduce -> [ ("engine", J.Str "sympvl"); ("order", J.Num (float_of_int v.base.order)) ]
    | Certify ->
      [ ("engine", J.Str "sympvl"); ("order", J.Num (float_of_int v.base.certify_order)) ]
    | Ac off ->
      [ ("freqs", J.List (List.map (fun f -> J.Num f) (Array.to_list (Array.sub v.base.grid off window)))) ]
    | Tran ->
      [ ("dt", J.Num v.base.dt); ("tstop", J.Num v.base.t_stop); ("observe", J.List [ J.Str v.observe ]) ]
  in
  J.to_string (J.Obj (common @ body @ if trace then [ ("trace", J.Bool true) ] else []))

(* The seeded request stream. Requests come in decks of 21 with the
   same content every time, shuffled by the seed, so that throughput
   and percentiles do not hinge on how many heavy requests a seed
   happens to draw. Per circuit and deck: ac on five 16-point windows
   8 points apart (each overlaps the last), two identical reduce
   requests and two identical tran requests (exact repeats). In turn,
   one circuit gets a certify and the other a pair of overlapping ac
   windows pipelined on one connection in one write, so the daemon
   reads them in the same tick and can fold them into one sweep. Each
   circuit moves to its
   next corner every deck, from a starting corner drawn from the seed:
   8 variants cycle through 6 cache entries, so misses, model builds
   and evictions sit beside hits. Items are (variant, op, paired). *)
let per_base = [ Ac 0; Ac 8; Ac 16; Ac 24; Ac 32; Reduce; Reduce; Tran; Tran ]

let stream ~rng (vs : variant array) =
  let nbases = Array.length vs / corners in
  let start = Array.init nbases (fun _ -> Linalg.Rng.int rng corners) in
  let queue = ref [] and decks = ref 0 in
  let refill () =
    let turn = !decks mod nbases in
    let corner b = (b * corners) + ((start.(b) + !decks) mod corners) in
    let single b op = [ (corner b, op, false) ] in
    let cards =
      Array.of_list
        ([ (corner turn, Ac 8, true); (corner turn, Ac 16, true) ]
        :: single (nbases - 1 - turn) Certify
        :: List.concat (List.init nbases (fun b -> List.map (single b) per_base)))
    in
    R.shuffle rng cards;
    queue := List.concat (Array.to_list cards);
    incr decks
  in
  let rec peek () =
    match !queue with
    | t :: _ -> t
    | [] ->
      refill ();
      peek ()
  in
  let take () =
    let t = peek () in
    queue := List.tl !queue;
    t
  in
  let at_deck_end () = !queue = [] in
  (peek, take, at_deck_end)

(* ------------------------------------------------------------------ *)
(* daemon process and raw connections                                  *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable pending : (int * float) list;
      (** requests awaiting a reply, oldest first: index, send time *)
}

let connect sock ~deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when R.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.002;
      go ()
  in
  { fd = go (); buf = Buffer.create 4096; pending = [] }

let send c line =
  let s = line ^ "\n" in
  let rec go off = if off < String.length s then go (off + Unix.write_substring c.fd s off (String.length s - off)) in
  go 0

(* next complete line already buffered, if any *)
let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

let chunk = Bytes.create 65536

(* read once; false on EOF *)
let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.buf chunk 0 n;
    true

let rec recv c =
  match take_line c with
  | Some l -> l
  | None -> if fill c then recv c else failwith "daemon closed the connection"

type daemon = { pid : int; sock : string; ctl : conn }

(* built from source by run.py before the benchmark starts *)
let symor = "_build/default/bin/symor.exe"

let spawn ~k =
  let sock = Printf.sprintf ".perfbench/serve-%d-%d.sock" (Unix.getpid ()) k in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log = Unix.openfile ".perfbench/serve.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process symor
      [| symor; "serve"; "--socket"; sock; "--jobs"; string_of_int daemon_jobs;
         "--cache-entries"; string_of_int cache_entries |]
      devnull devnull log
  in
  Unix.close devnull;
  Unix.close log;
  match connect sock ~deadline:(R.now () +. 60.0) with
  | ctl -> { pid; sock; ctl }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

let stop d =
  (match send d.ctl {|{"op":"shutdown"}|}; recv d.ctl with
  | _ -> ()
  | exception _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  (try Unix.close d.ctl.fd with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] d.pid in
  (try Unix.unlink d.sock with Unix.Unix_error _ -> ());
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> R.note "serve_mix: daemon did not exit cleanly"

(* set-up: daemon spawn until the first ping reply, then one warm-up
   reduction on a small fixed netlist *)
let warm_request =
  J.to_string
    (J.Obj
       [
         ("op", J.Str "reduce");
         ("netlist", J.Str (Emit.netlist (Circuit.Generators.rc_line ~sections:50 ())));
         ("order", J.Num 4.0);
       ])

let start ~k =
  let t0 = R.now () in
  let d = spawn ~k in
  match
    send d.ctl {|{"op":"ping"}|};
    if J.to_bool_opt (J.member "pong" (J.parse (recv d.ctl))) <> Some true then
      failwith "bad ping reply";
    send d.ctl warm_request;
    if J.to_bool_opt (J.member "ok" (J.parse (recv d.ctl))) <> Some true then
      failwith "warm-up request failed"
  with
  | () -> (d, R.now () -. t0)
  | exception e ->
    stop d;
    raise e

(* ------------------------------------------------------------------ *)
(* in-process reference: the daemon's compute path, replayed           *)

type ref_entry = {
  rnl : Circuit.Netlist.t;
  rm : Circuit.Mna.t;
  rctx : Sympvl.Pencil.t;
  models : (int, Sympvl.Rom.model) Hashtbl.t;
}

let jfloats a = J.List (Array.to_list (Array.map (fun v -> J.Num v) a))

let jcmat (z : Linalg.Cmat.t) =
  J.List
    (List.init z.Linalg.Cmat.rows (fun r ->
         J.List
           (List.init z.Linalg.Cmat.cols (fun c ->
                let v = Linalg.Cmat.get z r c in
                J.List [ J.Num v.Complex.re; J.Num v.Complex.im ]))))

(* drop the fields that legitimately differ between the daemon and the
   reference: the request id, whether the model came from the cache,
   and an attached trace *)
let normalise = function
  | J.Obj kv ->
    J.to_string
      (J.Obj (List.filter (fun (k, _) -> not (List.mem k [ "id"; "cached"; "trace" ])) kv))
  | j -> J.to_string j

let reference entries (v : variant) op =
  let e =
    match Hashtbl.find_opt entries v.text with
    | Some e -> e
    | None ->
      let rnl = Circuit.Parser.parse_string v.text in
      let rm = Circuit.Mna.auto rnl in
      let e = { rnl; rm; rctx = Sympvl.Pencil.create rm; models = Hashtbl.create 2 } in
      Hashtbl.add entries v.text e;
      e
  in
  let model order =
    match Hashtbl.find_opt e.models order with
    | Some m -> m
    | None ->
      let m = Sympvl.Rom.reduce ~ctx:e.rctx ~order `Sympvl e.rm in
      Hashtbl.add e.models order m;
      m
  in
  let ok ?findings fields = normalise (J.parse (Serve.Protocol.ok_response ~id:J.Null ?findings fields)) in
  match op with
  | Reduce ->
    let m = model v.base.order in
    ok
      [
        ("engine", J.Str "sympvl");
        ("n", R.jint e.rm.Circuit.Mna.n);
        ("order", R.jint (Sympvl.Rom.order m));
        ("ports", R.jint (Sympvl.Rom.ports m));
        ("shift", J.Num (Sympvl.Rom.shift m));
      ]
  | Certify ->
    let m = model v.base.certify_order in
    let rep = Sympvl.Certify.run ~ctx:e.rctx ~shift_requested:false m e.rm in
    ok ~findings:rep.Sympvl.Certify.findings
      [
        ("engine", J.Str "sympvl");
        ("order", R.jint (Sympvl.Rom.order m));
        ("safe_order", match rep.Sympvl.Certify.safe_order with Some k -> R.jint k | None -> J.Null);
      ]
  | Ac off ->
    let freqs = Array.sub v.base.grid off window in
    let sw = Simulate.Ac.sweep_ws e.rm e.rctx freqs in
    ok
      [
        ("freqs", jfloats freqs);
        ("ports", J.List (Array.to_list (Array.map (fun s -> J.Str s) e.rm.Circuit.Mna.port_names)));
        ("z", J.List (Array.to_list (Array.map jcmat sw.Simulate.Ac.z)));
      ]
  | Tran ->
    let nodes = [ Circuit.Netlist.node e.rnl v.observe ] in
    let opts = Simulate.Transient.default ~dt:v.base.dt ~t_stop:v.base.t_stop in
    let res = Simulate.Transient.run ~opts ~observe:nodes e.rnl in
    ok
      [
        ("times", jfloats res.Simulate.Transient.times);
        ( "voltages",
          J.Obj (List.map (fun (name, w) -> (name, jfloats w)) res.Simulate.Transient.voltages) );
        ("steps", R.jint res.Simulate.Transient.steps);
      ]

(* reduced vs exact over the whole master grid of a variant; the
   reference reduce builds the model when the run did not *)
let model_error entries (v : variant) =
  ignore (reference entries v Reduce);
  let e = Hashtbl.find entries v.text in
  let m = Hashtbl.find e.models v.base.order in
  let sw = Simulate.Ac.sweep_ws e.rm e.rctx v.base.grid in
  Simulate.Ac.max_rel_error sw (Simulate.Ac.model_sweep (Sympvl.Rom.eval m) v.base.grid)

(* ------------------------------------------------------------------ *)
(* daemon-side layer times from per-request Chrome-trace subtrees      *)

let layer_of = function
  | "factor.symbolic" | "skyline.symbolic" | "ac.symbolic" -> Some "serve.pencil_s"
  | "factor.numeric" | "factor.dense" | "skyline.numeric" -> Some "serve.factor_s"
  | "lanczos.run" | "lanczos.step" -> Some "serve.rom_s"
  | "certify.run" | "certify.hamiltonian" -> Some "serve.certify_s"
  | "ac.sweep" | "ac.point" | "ac.solve" -> Some "serve.ac_s"
  | _ -> None

(* Self seconds per layer in one request's trace (B/E events nest per
   thread), added to [acc]. The transient engine has no span of its
   own: on a tran request its time is the request span's self time.
   Also returns the summed durations of ac.point and ac.sweep spans,
   for the pool's busy ratio. *)
let trace_layers acc ~tran trace =
  let events = match J.member "traceEvents" trace with J.List l -> l | _ -> [] in
  let stacks = Hashtbl.create 4 in
  let points = ref 0.0 and sweeps = ref 0.0 in
  let add layer v = Hashtbl.replace acc layer (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc layer)) in
  List.iter
    (fun ev ->
      let str k = J.to_str_opt (J.member k ev) and num k = J.to_float_opt (J.member k ev) in
      match (str "ph", num "tid", num "ts") with
      | Some "B", Some tid, Some ts ->
        let st = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
        Hashtbl.replace stacks tid ((Option.value ~default:"" (str "name"), ts, ref 0.0) :: st)
      | Some "E", Some tid, Some ts -> (
        match Hashtbl.find_opt stacks tid with
        | Some ((name, t0, child) :: rest) ->
          let dur = (ts -. t0) *. 1e-6 in
          (match rest with (_, _, c) :: _ -> c := !c +. dur | [] -> ());
          Hashtbl.replace stacks tid rest;
          if String.equal name "ac.point" then points := !points +. dur;
          if String.equal name "ac.sweep" then sweeps := !sweeps +. dur;
          let layer =
            if tran && String.equal name "serve.request" then Some "serve.tran_s" else layer_of name
          in
          Option.iter (fun l -> add l (dur -. !child)) layer
        | _ -> ())
      | _ -> ())
    events;
  (!points, !sweeps)

(* ------------------------------------------------------------------ *)

type conns = {
  cs : conn array;
  mutable nsent : int;
  mutable sent : (int * op * bool) list;  (** (variant, op, traced), newest first *)
  mutable done_ : (int * int * float * float * string) list;
      (** (request, client, send time, latency, reply) *)
}

(* One segment of the window: two closed-loop clients until [seconds]
   have passed and the current deck is sent, then the replies still in
   flight are waited for. Segments end on deck boundaries, so a run
   sends whole decks only. Returns the segment's length, to its last
   reply. *)
let segment st ~peek ~take ~at_deck_end ~(vs : variant array) ~seconds ~trace =
  let t_start = R.now () in
  let deadline = t_start +. seconds in
  let request c (vi, op, _) =
    let traced = trace && st.nsent mod 2 = 1 in
    let line = request_json ~id:st.nsent ~trace:traced vs.(vi) op in
    st.sent <- (vi, op, traced) :: st.sent;
    c.pending <- c.pending @ [ (st.nsent, R.now ()) ];
    st.nsent <- st.nsent + 1;
    line
  in
  (* give each idle connection the next item, both halves of a pair in
     one write *)
  let dispatch () =
    Array.iter
      (fun c ->
        if c.pending = [] && (R.now () < deadline || not (at_deck_end ())) then begin
          let _, _, paired = peek () in
          let first = request c (take ()) in
          send c (if paired then first ^ "\n" ^ request c (take ()) else first)
        end)
      st.cs
  in
  dispatch ();
  let t_end = ref t_start in
  while Array.exists (fun c -> c.pending <> []) st.cs do
    if R.now () > deadline +. 120.0 then failwith "daemon stopped answering";
    let fds =
      List.filter_map (fun c -> if c.pending <> [] then Some c.fd else None) (Array.to_list st.cs)
    in
    let rd, _, _ = try Unix.select fds [] [] 1.0 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []) in
    Array.iteri
      (fun ci c ->
        if List.mem c.fd rd then begin
          if not (fill c) then failwith "daemon closed the connection";
          (* replies come in request order on a connection *)
          let rec replies () =
            match (take_line c, c.pending) with
            | Some line, (i, t0) :: rest ->
              let t1 = R.now () in
              t_end := t1;
              c.pending <- rest;
              st.done_ <- (i, ci, t0, t1 -. t0, line) :: st.done_;
              replies ()
            | Some _, [] -> failwith "reply without a request"
            | None, _ -> ()
          in
          replies ()
        end)
      st.cs;
    dispatch ()
  done;
  !t_end -. t_start

(* the window is cut into this many segments, with a set-up sample
   before the first and after each one *)
let segments = 10

let run ~tiny ~seed ~seconds ~trace =
  if not (Sys.file_exists symor) then failwith ("symor binary not found: " ^ symor);
  let rng = Linalg.Rng.create seed in
  let vs = variants (bases ~tiny) in
  let peek, take, at_deck_end = stream ~rng vs in
  let probes = ref [ R.probe () ] in
  let setup_sample k =
    let d, dt = start ~k in
    stop d;
    dt
  in
  let d, first_setup = start ~k:0 in
  (* the daemon is stopped and reaped on every path out of the run *)
  let setups, window_s, stats, rss, st =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let st =
          {
            cs = Array.init clients (fun _ -> connect d.sock ~deadline:(R.now () +. 10.0));
            nsent = 0;
            sent = [];
            done_ = [];
          }
        in
        let setups = ref [ first_setup ] and window = ref 0.0 in
        for k = 1 to segments do
          window :=
            !window
            +. segment st ~peek ~take ~at_deck_end ~vs ~seconds:(seconds /. float_of_int segments) ~trace;
          if k = segments / 2 then probes := R.probe () :: !probes;
          setups := setup_sample k :: !setups
        done;
        (* daemon counters and peak RSS *)
        send d.ctl {|{"op":"stats"}|};
        let stats = J.parse (recv d.ctl) in
        let rss = R.peak_rss_mb (Some d.pid) in
        Array.iter (fun c -> Unix.close c.fd) st.cs;
        (Array.of_list !setups, !window, stats, rss, st))
  in
  probes := R.probe () :: !probes;
  let sent = Array.of_list (List.rev st.sent) in
  let done_ = List.rev st.done_ in
  (* output checks against the in-process reference *)
  let templates = Hashtbl.create 64 and entries = Hashtbl.create 16 in
  let failed = ref 0 and wrong = ref 0 and checks = ref 0 in
  let lat = ref [] and by_op = Hashtbl.create 4 and model_lat = ref [] in
  let traced_lat = ref [] and plain_lat = ref [] in
  let layers = Hashtbl.create 8 and ac_points = ref 0.0 and ac_sweeps = ref 0.0 in
  List.iter
    (fun (i, ci, t0, dt, line) ->
      let vi, op, traced = sent.(i) in
      let resp = J.parse line in
      let ok = J.to_bool_opt (J.member "ok" resp) = Some true in
      let status = Option.value ~default:2 (J.to_int_opt (J.member "status" resp)) in
      if (not ok) || status = 2 then begin
        incr failed;
        R.note "request %d (%s on %s) failed: %s" i (op_name op) vs.(vi).label
          (String.sub line 0 (min 300 (String.length line)))
      end
      else begin
        let key = (vi, op) in
        let want =
          match Hashtbl.find_opt templates key with
          | Some w -> w
          | None ->
            let w = reference entries vs.(vi) op in
            Hashtbl.add templates key w;
            w
        in
        incr checks;
        if not (String.equal want (normalise resp)) then begin
          incr wrong;
          R.note "request %d (%s on %s): payload differs from the in-process reference" i
            (op_name op) vs.(vi).label
        end;
        match op with Reduce | Certify -> model_lat := dt :: !model_lat | Ac _ | Tran -> ()
      end;
      lat := dt :: !lat;
      Hashtbl.replace by_op (op_name op)
        (dt :: Option.value ~default:[] (Hashtbl.find_opt by_op (op_name op)));
      if traced then begin
        Spans.record ~op:i ~tid:(ci + 1) ("request." ^ op_name op) t0 (t0 +. dt);
        traced_lat := dt :: !traced_lat;
        match J.member "trace" resp with
        | J.Null -> ()
        | tr ->
          let p, s = trace_layers layers ~tran:(op = Tran) tr in
          ac_points := !ac_points +. p;
          ac_sweeps := !ac_sweeps +. s
      end
      else plain_lat := dt :: !plain_lat)
    done_;
  (* accuracy: reference models vs exact AC over the full grid of
     every corner (the reference builds the models the run did not) *)
  let max_err = Array.fold_left (fun acc v -> Float.max acc (model_error entries v)) 0.0 vs in
  let completed = List.length done_ in
  let lat = Array.of_list !lat and model_lat = Array.of_list !model_lat in
  let geti path =
    Option.value ~default:0 (J.to_int_opt (List.fold_left (fun v k -> J.member k v) stats path))
  in
  let hits = geti [ "cache"; "hits" ] and misses = geti [ "cache"; "misses" ] in
  let phits = geti [ "cache"; "point_hits" ] and pmiss = geti [ "cache"; "point_misses" ] in
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  R.provenance ~workload:"serve_mix" ~seed ~tiny ~trace
    [
      ("daemon_jobs", R.jint daemon_jobs);
      ("clients", R.jint clients);
      ("loop", J.Str "closed");
      ("cache_entries", R.jint cache_entries);
      ("variants", J.List (Array.to_list (Array.map (fun v -> J.Str v.label) vs)));
      ("requests", R.jint completed);
      ("window_s", R.jnum window_s);
      ("request_latency", R.latency_summary lat);
      ("req_per_s", R.jnum (float_of_int completed /. window_s));
      ("models_per_s", R.jnum (float_of_int (Array.length model_lat) /. R.sum model_lat));
      ("setup_samples", J.List (Array.to_list (Array.map R.jnum setups)));
      ("host_probe_s", J.List (List.rev_map R.jnum !probes));
      ("output_checks", R.jint !checks);
    ];
  R.note "serve_mix: %d requests in %.2f s, latency p50 %.2f ms (%d samples)" completed window_s
    (1e3 *. R.median lat) (Array.length lat);
  Hashtbl.iter
    (fun name l ->
      let a = Array.of_list l in
      R.note "serve_mix: %s latency p50 %.2f ms (%d samples)" name (1e3 *. R.median a)
        (Array.length a))
    by_op;
  R.note "serve_mix: attempted %d, failed %d, payload mismatches %d, cache hits %d / %d lookups"
    completed !failed !wrong hits (hits + misses);
  let values =
    if not trace then
      [
        ("setup_s", R.median setups);
        (* the median request: requests mix cache hits, misses and
           request kinds, so the fastest one says little; the median
           of this mix repeats within a few per cent between runs *)
        ("latency_ms", 1e3 *. R.median lat);
        ("max_rel_err", max_err);
        ("ok_frac", 1.0 -. (float_of_int (!failed + !wrong) /. float_of_int completed));
        ("peak_rss_mb", rss);
      ]
    else begin
      let traced_n = List.length !traced_lat in
      Spans.write_chrome (Printf.sprintf ".perfbench/trace-serve_mix-%d.json" seed);
      let layer k = Option.value ~default:0.0 (Hashtbl.find_opt layers k) /. float_of_int traced_n in
      let p50 op =
        match Hashtbl.find_opt by_op op with
        | Some l -> 1e3 *. R.median (Array.of_list l)
        | None -> 0.0
      in
      [
        ("serve.reduce_p50_ms", p50 "reduce");
        ("serve.ac_p50_ms", p50 "ac");
        ("serve.certify_p50_ms", p50 "certify");
        ("serve.tran_p50_ms", p50 "tran");
        ("serve.cache_hit_ratio", ratio hits misses);
        ("serve.cache_lookups", float_of_int (hits + misses));
        ("serve.point_hit_ratio", ratio phits pmiss);
        ("serve.point_lookups", float_of_int (phits + pmiss));
        ("serve.model_builds", float_of_int (geti [ "cache"; "model_builds" ]));
        ("serve.evictions", float_of_int (geti [ "cache"; "evictions" ]));
        ("serve.batched_points", float_of_int (geti [ "batched_points" ]));
        ("serve.pencil_s", layer "serve.pencil_s");
        ("serve.factor_s", layer "serve.factor_s");
        ("serve.rom_s", layer "serve.rom_s");
        ("serve.certify_s", layer "serve.certify_s");
        ("serve.ac_s", layer "serve.ac_s");
        ("serve.tran_s", layer "serve.tran_s");
        ( "pool.busy_ratio",
          if !ac_sweeps > 0.0 then !ac_points /. (float_of_int daemon_jobs *. !ac_sweeps) else 0.0 );
        ("trace.ops", float_of_int traced_n);
        ( "trace.overhead_frac",
          (R.mean (Array.of_list !traced_lat) /. R.mean (Array.of_list !plain_lat)) -. 1.0 );
      ]
    end
  in
  (completed, !failed, !checks, !wrong, values)
