(* LDLᵀ without pivoting breaks down iff a leading principal minor is
   singular, which depends on the ordering alone: an AMD ordering can
   eliminate an exactly-cancelling MNA node pair before the current
   variable that couples it, where RCM's level sets happen to
   interleave them. When the AMD-ordered factorisation hits such a
   pivot the pencil retries on an RCM-ordered symbolic phase — a
   different elimination sequence, same supernodal kernel. Built
   lazily on first breakdown and memoized; the Atomic makes the memo
   safe under pooled AC sweeps (both racers compute identical
   values). *)
type rcm_retry = {
  rr_perm : int array; (* RCM + postorder: new index -> old index *)
  rr_remap : int array; (* AMD-permuted index of rr_perm.(k) *)
  rr_sym : Sparse.Supernodal.symbolic;
}

type t = {
  g : Sparse.Csr.t;
  c : Sparse.Csr.t;
  variable : Circuit.Mna.variable;
  n : int;
  p : int;
  perm : int array; (* new index -> old index *)
  inv : int array; (* old index -> new index *)
  mutable sym : Sparse.Supernodal.symbolic; (* mutable only via [reserve] *)
  retry : rcm_retry option Atomic.t;
  port_idx : int array array;
  port_val : float array array;
  cache : (float, (Factor.t, int) result) Hashtbl.t;
}

let log_src = Logs.Src.create "sympvl.pencil" ~doc:"shared pencil-solve context"

module Log = (val Logs.src_log log_src : Logs.LOG)

let n t = t.n

let p t = t.p

let perm t = t.perm

let port_idx t = t.port_idx

let port_val t = t.port_val

let variable t = t.variable

let g t = t.g

let c t = t.c

(* structural pre-flight: a pencil whose pattern has structural rank
   < n is singular for every element value and every expansion shift
   (Matching.mli) — fail up front with a located user error instead of
   a late Factor.Singular from some shifted retry *)
let check_structure (m : Circuit.Mna.t) =
  let mm = Sparse.Matching.maximum (Circuit.Mna.pencil_pattern m) in
  let n = m.Circuit.Mna.n in
  if mm.Sparse.Matching.rank < n then begin
    let rows = Sparse.Matching.unmatched_rows mm in
    let shown = List.filteri (fun i _ -> i < 4) rows in
    let labels = String.concat ", " (List.map (Circuit.Mna.unknown_label m) shown) in
    let extra = List.length rows - List.length shown in
    Circuit.Diagnostic.user_errorf
      "[STR001] G + sC is structurally singular (structural rank %d of %d): \
       %s%s cannot be matched to independent equations — no element values or \
       expansion shift can repair this; run `symor analyze` for source-line \
       provenance"
      mm.Sparse.Matching.rank n labels
      (if extra > 0 then Printf.sprintf " (and %d more)" extra else "")
  end

let auto_shift_gc g c =
  let diag_max a =
    let worst = ref 0.0 in
    for i = 0 to a.Sparse.Csr.rows - 1 do
      worst := Float.max !worst (Float.abs (Sparse.Csr.get a i i))
    done;
    !worst
  in
  let g = diag_max g and c = diag_max c in
  if c <= 0.0 then 1.0 else Float.max (g /. c) 1.0

let auto_shift (m : Circuit.Mna.t) = auto_shift_gc m.Circuit.Mna.g m.Circuit.Mna.c

let band_shift_var variable (f_lo, f_hi) =
  assert (f_lo > 0.0 && f_hi >= f_lo);
  let w = 2.0 *. Float.pi *. sqrt (f_lo *. f_hi) in
  match variable with Circuit.Mna.S -> w | Circuit.Mna.S_squared -> w *. w

let band_shift (m : Circuit.Mna.t) band = band_shift_var m.Circuit.Mna.variable band

let of_matrices ?(variable = Circuit.Mna.S) ?b g c =
  if Obs.tracing () then
    Obs.span_begin ~args:[ ("n", Obs.Int g.Sparse.Csr.rows) ] "factor.symbolic";
  let n = g.Sparse.Csr.rows in
  let perm = Sparse.Supernodal.order ~c g in
  let sym =
    Sparse.Supernodal.symbolic ~c:(Sparse.Csr.permute_sym c perm)
      (Sparse.Csr.permute_sym g perm)
  in
  let inv = Array.make n 0 in
  Array.iteri (fun new_i old_i -> inv.(old_i) <- new_i) perm;
  let p = match b with None -> 0 | Some b -> b.Linalg.Mat.cols in
  let port_idx = Array.make p [||] and port_val = Array.make p [||] in
  (match b with
  | None -> ()
  | Some b ->
    for c = 0 to p - 1 do
      let idx = ref [] and v = ref [] in
      for i = n - 1 downto 0 do
        let bi = Linalg.Mat.get b perm.(i) c in
        if bi <> 0.0 then begin
          idx := i :: !idx;
          v := bi :: !v
        end
      done;
      port_idx.(c) <- Array.of_list !idx;
      port_val.(c) <- Array.of_list !v
    done);
  if Obs.tracing () then Obs.span_end ();
  {
    g;
    c;
    variable;
    n;
    p;
    perm;
    inv;
    sym;
    retry = Atomic.make None;
    port_idx;
    port_val;
    cache = Hashtbl.create 4;
  }

let create (m : Circuit.Mna.t) =
  check_structure m;
  of_matrices ~variable:m.Circuit.Mna.variable ~b:m.Circuit.Mna.b
    m.Circuit.Mna.g m.Circuit.Mna.c

(* ------------------------------------------------------------------ *)
(* real factorisations, memoized by shift                              *)

let dense_shifted t s0 =
  let shifted =
    if s0 = 0.0 then t.g else Sparse.Csr.add ~alpha:1.0 ~beta:s0 t.g t.c
  in
  Factor.of_dense (Sparse.Csr.to_dense shifted)

let real_numeric ?extra t sym perm s0 =
  let fac = Sparse.Supernodal.Real.factor ?extra sym s0 in
  if Obs.tracing () then begin
    Obs.count "factor.count" 1;
    Obs.count "factor.nnz" (Sparse.Supernodal.Real.fill fac)
  end;
  Factor.of_supernodal t.n perm fac

let rcm_retry t i =
  Log.info (fun f ->
      f "supernodal pivot breakdown at %d; retrying in RCM elimination order" i);
  if Obs.tracing () then begin
    Obs.instant ~args:[ ("pivot", Obs.Int i) ] "factor.fallback_rcm";
    Obs.count "factor.fallback_rcm" 1
  end;
  match Atomic.get t.retry with
  | Some rr -> rr
  | None ->
    let pattern = Sparse.Csr.add t.g t.c in
    let rcm = Sparse.Supernodal.postordered pattern (Sparse.Rcm.order pattern) in
    let rr =
      {
        rr_perm = rcm;
        rr_remap = Array.map (fun old -> t.inv.(old)) rcm;
        rr_sym =
          Sparse.Supernodal.symbolic ~c:(Sparse.Csr.permute_sym t.c rcm)
            (Sparse.Csr.permute_sym t.g rcm);
      }
    in
    Atomic.set t.retry (Some rr);
    rr

let factor_uncached t s0 =
  if Obs.tracing () then Obs.span_begin "factor.numeric";
  let sparse_fac =
    match real_numeric t t.sym t.perm s0 with
    | fac -> Ok fac
    | exception Sparse.Supernodal.Singular i -> (
      (* a different elimination order may well succeed; only then
         surrender to the dense factorisation *)
      let rr = rcm_retry t i in
      match real_numeric t rr.rr_sym rr.rr_perm s0 with
      | fac -> Ok fac
      | exception Sparse.Supernodal.Singular j -> Error j)
  in
  match sparse_fac with
  | Ok fac ->
    if Obs.tracing () then Obs.span_end ();
    Ok fac
  | Error i -> (
    if Obs.tracing () then begin
      Obs.instant ~args:[ ("pivot", Obs.Int i) ] "factor.breakdown";
      Obs.span_end ()
    end;
    Log.info (fun f ->
        f "sparse pivot breakdown at %d; falling back to dense Bunch-Kaufman" i);
    if Obs.tracing () then begin
      Obs.instant ~args:[ ("pivot", Obs.Int i) ] "factor.fallback_dense";
      Obs.count "factor.fallback_dense" 1
    end;
    match dense_shifted t s0 with
    | fac -> Ok fac
    | exception Factor.Singular j -> Error j)

let unpack = function Ok fac -> fac | Error i -> raise (Factor.Singular i)

let factor t ~shift =
  match Hashtbl.find_opt t.cache shift with
  | Some r ->
    if Obs.tracing () then Obs.count "pencil.cache_hit" 1;
    unpack r
  | None ->
    if Obs.tracing () then Obs.count "pencil.cache_miss" 1;
    let r = factor_uncached t shift in
    Hashtbl.replace t.cache shift r;
    unpack r

let with_auto_shift ?shift ?band t f =
  match shift with
  | Some s0 -> f s0 (factor t ~shift:s0)
  | None -> (
    match factor t ~shift:0.0 with
    | fac -> f 0.0 fac
    | exception Factor.Singular _ ->
      let s0 =
        match band with
        | Some b -> band_shift_var t.variable b
        | None -> auto_shift_gc t.g t.c
      in
      Log.info (fun f -> f "G singular; retrying with automatic shift s0 = %g" s0);
      if Obs.tracing () then
        Obs.instant ~args:[ ("shift", Obs.Float s0) ] "pencil.shift_retry";
      f s0 (factor t ~shift:s0))

(* ------------------------------------------------------------------ *)
(* Newton-Jacobian hook (transient)                                    *)

let reserve t positions =
  (* rebuild the symbolic phase with the stamp positions merged into
     the pattern as structural zeros — the ordering is kept, so
     factorisations without stamps stay numerically identical *)
  let extra_pattern = Array.map (fun (i, j) -> (t.inv.(i), t.inv.(j))) positions in
  let gp = Sparse.Csr.permute_sym t.g t.perm in
  let cp = Sparse.Csr.permute_sym t.c t.perm in
  t.sym <- Sparse.Supernodal.symbolic ~extra_pattern ~c:cp gp

let factor_with t ~shift ~extra =
  let extra = Array.map (fun (i, j, v) -> (t.inv.(i), t.inv.(j), v)) extra in
  match real_numeric ~extra t t.sym t.perm shift with
  | fac -> fac
  | exception Sparse.Supernodal.Singular i -> raise (Factor.Singular i)

(* ------------------------------------------------------------------ *)
(* complex pencil solves (AC path)                                     *)

type cfactor =
  | Camd of Sparse.Supernodal.Complex_soa.t
  | Crcm of rcm_retry * Sparse.Supernodal.Complex_soa.t
      (* RCM-ordered retry after an AMD-ordered breakdown; carries the
         remap from AMD-permuted to RCM-permuted coordinates so callers
         keep addressing the context's permutation *)

let factor_complex ?pivot_tol t s =
  if Obs.tracing () then Obs.span_begin "factor.numeric";
  let finish r =
    if Obs.tracing () then Obs.span_end ();
    r
  in
  match Sparse.Supernodal.Complex_soa.factor ?pivot_tol t.sym s with
  | fac -> finish (Camd fac)
  | exception Sparse.Supernodal.Singular i -> (
    let rr = rcm_retry t i in
    match Sparse.Supernodal.Complex_soa.factor ?pivot_tol rr.rr_sym s with
    | fac -> finish (Crcm (rr, fac))
    | exception Sparse.Supernodal.Singular j ->
      if Obs.tracing () then begin
        Obs.instant ~args:[ ("pivot", Obs.Int j) ] "factor.breakdown";
        Obs.span_end ()
      end;
      raise (Factor.Singular j))

let csolve_split fac b_re b_im =
  match fac with
  | Camd f -> Sparse.Supernodal.Complex_soa.solve_split f b_re b_im
  | Crcm (rr, f) ->
    (* gather into RCM coordinates, solve, scatter back *)
    let n = Array.length rr.rr_remap in
    let br = Array.make n 0.0 and bi = Array.make n 0.0 in
    for k = 0 to n - 1 do
      let s = rr.rr_remap.(k) in
      br.(k) <- b_re.(s);
      bi.(k) <- b_im.(s)
    done;
    Sparse.Supernodal.Complex_soa.solve_split f br bi;
    for k = 0 to n - 1 do
      let s = rr.rr_remap.(k) in
      b_re.(s) <- br.(k);
      b_im.(s) <- bi.(k)
    done

let solve_complex t s b_re b_im =
  let fac = factor_complex t s in
  let xr = Array.init t.n (fun i -> b_re.(t.perm.(i))) in
  let xi = Array.init t.n (fun i -> b_im.(t.perm.(i))) in
  csolve_split fac xr xi;
  let o_re = Array.make t.n 0.0 and o_im = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    o_re.(t.perm.(i)) <- xr.(i);
    o_im.(t.perm.(i)) <- xi.(i)
  done;
  (o_re, o_im)
