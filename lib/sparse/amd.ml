module Int_set = Set.Make (Int)

let identity n = Array.init n (fun i -> i)

(* greedy minimum-degree elimination on an explicit quotient-free
   graph: pick the minimum-degree vertex, join its neighbours into a
   clique, remove it. Exact external degrees, smallest-index
   tie-break. O(n²) selection — the reference path for small systems
   and the oracle [order_approx] is property-tested against. *)
let min_degree a =
  let n = a.Csr.rows in
  let adj = Array.make n Int_set.empty in
  for i = 0 to n - 1 do
    Csr.iter_row a i (fun j _ ->
        if i <> j then begin
          adj.(i) <- Int_set.add j adj.(i);
          adj.(j) <- Int_set.add i adj.(j)
        end)
  done;
  let deg = Array.map Int_set.cardinal adj in
  let alive = Array.make n true in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if alive.(i) && (!best = -1 || deg.(i) < deg.(!best)) then best := i
    done;
    let p = !best in
    order.(k) <- p;
    alive.(p) <- false;
    let nbrs = adj.(p) in
    Int_set.iter
      (fun u ->
        adj.(u) <- Int_set.remove u (Int_set.remove p (Int_set.union adj.(u) nbrs));
        deg.(u) <- Int_set.cardinal adj.(u))
      nbrs;
    adj.(p) <- Int_set.empty
  done;
  order

(* ------------------------------------------------------------------ *)
(* Approximate minimum degree (Amestoy–Davis–Duff) on a quotient
   graph. Near-linear in nnz(L): eliminated pivots become *elements*
   (hyperedges holding their Schur-complement clique), adjacency
   between remaining variables is the union of explicit edges and
   shared elements, external degrees are maintained by the AMD upper
   bound |A_i\Lp| + |Lp\i| + Σ_e |Le\Lp| instead of exact set unions,
   and indistinguishable variables (identical element + edge lists)
   are merged into supervariables so grid-like cliques collapse to a
   single representative. *)

(* variable states *)
let st_live = 0

let st_eliminated = 1

let st_absorbed = 2

let approx a =
  let n = a.Csr.rows in
  if n = 0 then [||]
  else begin
    (* deduplicated symmetrised strict adjacency *)
    let cnt = Array.make n 0 in
    let touch i j =
      if i <> j then begin
        cnt.(i) <- cnt.(i) + 1;
        cnt.(j) <- cnt.(j) + 1
      end
    in
    for i = 0 to n - 1 do
      Csr.iter_row a i (fun j _ -> touch i j)
    done;
    let adj = Array.init n (fun i -> Array.make cnt.(i) 0) in
    let fill = Array.make n 0 in
    for i = 0 to n - 1 do
      Csr.iter_row a i (fun j _ ->
          if i <> j then begin
            adj.(i).(fill.(i)) <- j;
            fill.(i) <- fill.(i) + 1;
            adj.(j).(fill.(j)) <- i;
            fill.(j) <- fill.(j) + 1
          end)
    done;
    let alen = Array.make n 0 in
    (* sort + dedupe each list in place *)
    for i = 0 to n - 1 do
      let r = adj.(i) in
      Array.sort Int.compare r;
      let m = ref 0 in
      for k = 0 to Array.length r - 1 do
        if !m = 0 || r.(!m - 1) <> r.(k) then begin
          r.(!m) <- r.(k);
          incr m
        end
      done;
      alen.(i) <- !m
    done;
    let elts = Array.make n [||] in
    (* per-variable element list *)
    let elen = Array.make n 0 in
    let evar = Array.make n [||] in
    (* element id = pivot variable id *)
    let evlen = Array.make n 0 in
    let esize = Array.make n 0 in
    (* Σ nv over the element's variables — kept exact, see below *)
    let edead = Array.make n false in
    let nv = Array.make n 1 in
    let state = Array.make n st_live in
    let degree = Array.init n (fun i -> alen.(i)) in
    let merged_into = Array.make n (-1) in
    (* degree buckets: doubly linked lists by current degree *)
    let head = Array.make n (-1) in
    let dnext = Array.make n (-1) in
    let dprev = Array.make n (-1) in
    let bucket_insert i d =
      let d = if d < 0 then 0 else if d > n - 1 then n - 1 else d in
      dnext.(i) <- head.(d);
      dprev.(i) <- -1;
      if head.(d) <> -1 then dprev.(head.(d)) <- i;
      head.(d) <- i;
      degree.(i) <- d
    in
    let bucket_remove i =
      let d = degree.(i) in
      if dprev.(i) <> -1 then dnext.(dprev.(i)) <- dnext.(i) else head.(d) <- dnext.(i);
      if dnext.(i) <> -1 then dprev.(dnext.(i)) <- dprev.(i);
      dprev.(i) <- -1;
      dnext.(i) <- -1
    in
    for i = 0 to n - 1 do
      bucket_insert i degree.(i)
    done;
    (* epoch-marked scratch *)
    let mark = Array.make n (-1) in
    let wepoch = Array.make n (-1) in
    let wval = Array.make n 0 in
    let epoch = ref 0 in
    let lp = Array.make n 0 in
    (* current pivot's live neighbourhood *)
    let pivots = Array.make n 0 in
    let npiv = ref 0 in
    let kelim = ref 0 in
    let mindeg = ref 0 in
    while !kelim < n do
      (* pick the minimum-approximate-degree supervariable; [mindeg]
         is a sticky lower bound, so the scan is amortised O(n) total *)
      while head.(!mindeg) = -1 do
        incr mindeg
      done;
      let p = head.(!mindeg) in
      bucket_remove p;
      state.(p) <- st_eliminated;
      pivots.(!npiv) <- p;
      incr npiv;
      incr epoch;
      let cur = !epoch in
      mark.(p) <- cur;
      (* Lp: live supervariables adjacent to p via edges or elements *)
      let lplen = ref 0 in
      let lpw = ref 0 in
      let consider j =
        if state.(j) = st_live && mark.(j) <> cur then begin
          mark.(j) <- cur;
          lp.(!lplen) <- j;
          incr lplen;
          lpw := !lpw + nv.(j)
        end
      in
      let ap = adj.(p) in
      for k = 0 to alen.(p) - 1 do
        consider ap.(k)
      done;
      let ep = elts.(p) in
      for k = 0 to elen.(p) - 1 do
        let e = ep.(k) in
        if not edead.(e) then begin
          let ev = evar.(e) in
          for m = 0 to evlen.(e) - 1 do
            consider ev.(m)
          done;
          (* absorbed into the new element *)
          edead.(e) <- true;
          evar.(e) <- [||];
          evlen.(e) <- 0
        end
      done;
      adj.(p) <- [||];
      alen.(p) <- 0;
      elts.(p) <- [||];
      elen.(p) <- 0;
      kelim := !kelim + nv.(p);
      let lplen = !lplen and lpw = !lpw in
      if lplen > 0 then begin
        (* create element p *)
        let le = Array.sub lp 0 lplen in
        Array.sort Int.compare le;
        evar.(p) <- le;
        evlen.(p) <- lplen;
        esize.(p) <- lpw;
        (* pass A: w(e) := |Le \ Lp| in supervariable weights *)
        for x = 0 to lplen - 1 do
          let i = le.(x) in
          let ei = elts.(i) in
          for k = 0 to elen.(i) - 1 do
            let e = ei.(k) in
            if not edead.(e) then begin
              if wepoch.(e) <> cur then begin
                wepoch.(e) <- cur;
                wval.(e) <- esize.(e)
              end;
              wval.(e) <- wval.(e) - nv.(i)
            end
          done
        done;
        (* pass B: compact lists, aggressive element absorption,
           approximate degree update *)
        for x = 0 to lplen - 1 do
          let i = le.(x) in
          (* elements: drop dead and fully-covered ones, then add p *)
          let ei = elts.(i) in
          let m = ref 0 in
          let d_elems = ref 0 in
          for k = 0 to elen.(i) - 1 do
            let e = ei.(k) in
            if not edead.(e) then begin
              if wepoch.(e) = cur && wval.(e) <= 0 then begin
                (* Le ⊆ Lp ∪ {p}: absorbed by the new element *)
                edead.(e) <- true;
                evar.(e) <- [||];
                evlen.(e) <- 0
              end
              else begin
                ei.(!m) <- e;
                incr m;
                d_elems := !d_elems + (if wepoch.(e) = cur then wval.(e) else esize.(e))
              end
            end
          done;
          let ei =
            if !m + 1 <= Array.length ei then ei
            else begin
              let bigger = Array.make (!m + 1) 0 in
              Array.blit ei 0 bigger 0 !m;
              elts.(i) <- bigger;
              bigger
            end
          in
          ei.(!m) <- p;
          elen.(i) <- !m + 1;
          (* edges: drop eliminated/absorbed vars and vars inside Lp
             (now covered by element p) *)
          let ai = adj.(i) in
          let m = ref 0 in
          let d_adj = ref 0 in
          for k = 0 to alen.(i) - 1 do
            let j = ai.(k) in
            if state.(j) = st_live && mark.(j) <> cur then begin
              ai.(!m) <- j;
              incr m;
              d_adj := !d_adj + nv.(j)
            end
          done;
          alen.(i) <- !m;
          (* AMD degree bound: min of n-left, old + |Lp\i|, and the
             element-wise approximation *)
          let ext_lp = lpw - nv.(i) in
          let d_approx = !d_adj + ext_lp + !d_elems in
          let d_old = degree.(i) + ext_lp in
          let d_left = n - !kelim - nv.(i) in
          let d = min d_left (min d_old d_approx) in
          let d = if d < 0 then 0 else d in
          bucket_remove i;
          bucket_insert i d;
          if d < !mindeg then mindeg := d
        done;
        (* supervariable detection: hash the compacted lists, verify
           exact equality within hash groups, merge duplicates *)
        let htbl = Hashtbl.create (2 * lplen) in
        for x = 0 to lplen - 1 do
          let i = le.(x) in
          if state.(i) = st_live then begin
            let h = ref 0 in
            let ai = adj.(i) in
            for k = 0 to alen.(i) - 1 do
              h := !h + ai.(k) + 1
            done;
            let ei = elts.(i) in
            for k = 0 to elen.(i) - 1 do
              h := !h + ei.(k) + 1
            done;
            let key = !h land 0x3fffffff in
            let prev = try Hashtbl.find htbl key with Not_found -> [] in
            (* exact set comparison against previous bucket members *)
            let same j =
              alen.(i) = alen.(j)
              && elen.(i) = elen.(j)
              && begin
                incr epoch;
                let c = !epoch in
                let aj = adj.(j) and ej = elts.(j) in
                for k = 0 to alen.(j) - 1 do
                  mark.(aj.(k)) <- c
                done;
                for k = 0 to elen.(j) - 1 do
                  wepoch.(ej.(k)) <- c
                done;
                let ok = ref true in
                for k = 0 to alen.(i) - 1 do
                  if mark.(ai.(k)) <> c then ok := false
                done;
                for k = 0 to elen.(i) - 1 do
                  if wepoch.(ei.(k)) <> c then ok := false
                done;
                !ok
              end
            in
            match List.find_opt same prev with
            | Some j ->
              (* absorb i into j: total supervariable weight is
                 preserved, so every esize stays exact *)
              nv.(j) <- nv.(j) + nv.(i);
              nv.(i) <- 0;
              state.(i) <- st_absorbed;
              merged_into.(i) <- j;
              bucket_remove i;
              adj.(i) <- [||];
              alen.(i) <- 0;
              elts.(i) <- [||];
              elen.(i) <- 0
            | None -> Hashtbl.replace htbl key (i :: prev)
          end
        done
      end
    done;
    (* expand supervariables: pivots in elimination order, each
       followed by the variables merged into it (transitively) *)
    let children = Array.make n [] in
    for i = n - 1 downto 0 do
      if merged_into.(i) <> -1 then children.(merged_into.(i)) <- i :: children.(merged_into.(i))
    done;
    let order = Array.make n 0 in
    let pos = ref 0 in
    let rec emit i =
      order.(!pos) <- i;
      incr pos;
      List.iter emit children.(i)
    in
    for k = 0 to !npiv - 1 do
      emit pivots.(k)
    done;
    assert (!pos = n);
    order
  end

(* the exact greedy wins on quality for small systems and is the fill
   reference the analyzer reports and [order_approx] is tested
   against; the quotient-graph AMD takes over where O(n²) selection
   would dominate the factorisation itself *)
let exact_cutoff = 1024

let never_worse a cand =
  if Etree.predicted_nnz a cand <= Etree.factor_nnz (Etree.of_pattern a) then cand
  else identity a.Csr.rows

let order a =
  let n = a.Csr.rows in
  if n = 0 then [||]
  else never_worse a (if n <= exact_cutoff then min_degree a else approx a)

let order_approx a = if a.Csr.rows = 0 then [||] else never_worse a (approx a)
