(* The benchmark's own span recorder: one span per public layer call
   (per request for serve_mix), kept in memory and written out as a
   Chrome trace when the run ends. Off unless the operation is traced,
   so untraced operations time the library calls alone. *)

type span = {
  name : string;
  op : int;  (** Operation (request) the span belongs to. *)
  parent : int;  (** Index of the enclosing span, -1 at top level. *)
  tid : int;  (** Lane in the trace viewer: the client of a request. *)
  t0 : float;
  mutable t1 : float;
}

let on = ref false

let spans : span array ref = ref [||]

let count = ref 0

let stack : int list ref = ref []

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 64 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let with_ ~op name f =
  if not !on then f ()
  else begin
    let parent = match !stack with i :: _ -> i | [] -> -1 in
    let i = push { name; op; parent; tid = 1; t0 = Unix.gettimeofday (); t1 = 0.0 } in
    stack := i :: !stack;
    Fun.protect
      ~finally:(fun () ->
        !spans.(i).t1 <- Unix.gettimeofday ();
        stack := List.tl !stack)
      f
  end

(* a top-level span timed by the caller (a request in flight while
   other requests are) *)
let record ~op ~tid name t0 t1 = ignore (push { name; op; parent = -1; tid; t0; t1 })

(* self time per span name: duration minus the part covered by child
   spans (children of one span never overlap: one thread records) *)
let self_times () =
  let n = !count in
  let self = Array.init n (fun i -> !spans.(i).t1 -. !spans.(i).t0) in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. (s.t1 -. s.t0)
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let k = !spans.(i).name in
    Hashtbl.replace tbl k (self.(i) +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  done;
  tbl

let self_s tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

let write_chrome path =
  let oc = open_out path in
  let base = Array.fold_left (fun acc s -> Float.min acc s.t0) infinity (Array.sub !spans 0 !count) in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\
       \"args\":{\"op\":%d,\"parent\":%d}}"
      (if i = 0 then "" else ",\n")
      s.name
      ((s.t0 -. base) *. 1e6)
      ((s.t1 -. s.t0) *. 1e6)
      s.tid s.op s.parent
  done;
  output_string oc "]}\n";
  close_out oc
