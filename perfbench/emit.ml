(* Linear netlist text emitter.

   [Circuit.Parser.to_string] calls [Netlist.node_name] per terminal,
   and [node_name] rebuilds the whole node-name array on every call,
   so printing a netlist is O(elements x nodes): a 160x160 rc_grid
   takes minutes. The benchmark names nodes by their index instead
   ("n<k>", ground "0"), which is one pass over the elements. The
   parsed result is the same circuit with the same element order. *)

module N = Circuit.Netlist

let node n = if n = 0 then "0" else "n" ^ string_of_int n

(* [scale] multiplies R, C and L values by a per-class factor — the
   value-perturbed corner variants of the serve workload; [extra] is
   appended verbatim before the port cards (a drive source). *)
let netlist ?(scale = fun (_ : [ `R | `C | `L ]) -> 1.0) ?(extra = "") nl =
  let b = Buffer.create (1 lsl 16) in
  let card name n1 n2 v = Printf.bprintf b "%s %s %s %.17g\n" name (node n1) (node n2) v in
  List.iter
    (function
      | N.Resistor { name; n1; n2; ohms } -> card name n1 n2 (ohms *. scale `R)
      | N.Capacitor { name; n1; n2; farads } -> card name n1 n2 (farads *. scale `C)
      | N.Inductor { name; n1; n2; henries } -> card name n1 n2 (henries *. scale `L)
      | N.Mutual { name; l1; l2; k } -> Printf.bprintf b "%s %s %s %.17g\n" name l1 l2 k
      | N.Current_source _ | N.Voltage_source _ | N.Vccs _ | N.Nonlinear_conductance _ ->
        invalid_arg "Emit.netlist: only R/L/C/K netlists are generated")
    (N.elements nl);
  Buffer.add_string b extra;
  List.iter
    (fun (p : N.port) ->
      Printf.bprintf b ".port %s %s %s\n" p.N.port_name (node p.N.plus) (node p.N.minus))
    (N.ports nl);
  Buffer.contents b
