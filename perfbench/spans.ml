(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark's own code around its calls into
   each library layer; nothing inside the libraries is instrumented.  Three
   kinds exist:

   - [Timed]: a measured interval around a public call (or an interval
     read off timestamps the program keeps, such as a request's
     submit-to-done time);
   - [Derived]: a duration the program reports for work done inside the
     enclosing call (for example the per-pass times [Pipeline.all_stats]
     records during a compile) — it has no measured position, so it is
     laid out back to back from its parent's start;
   - [Beside]: the same public call re-run on the same input next to the
     op, for a layer the op reaches only inside another call.  Beside
     spans are outside the op's wall time and never enter its layer
     accounting.

   When tracing is off every entry point reduces to calling its thunk. *)

type kind = Timed | Derived | Beside

type span = {
  id : int;
  name : string;
  layer : string;
  kind : kind;
  parent : int;  (** 0 = none *)
  op : int;  (** 0 = outside any op *)
  t0 : float;
  mutable t1 : float;
  mutable derived_cursor : float;  (** where the next derived child starts *)
}

let enabled = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 1
let current_op = ref 0
let last_op = ref 0  (** the most recent op, which beside spans belong to *)

let fresh ~name ~layer ~kind ~parent ~op ~t0 ~t1 =
  let s =
    { id = !next_id; name; layer; kind; parent; op; t0; t1;
      derived_cursor = t0 }
  in
  incr next_id;
  spans := s :: !spans;
  s

let parent_id () = match !stack with p :: _ -> p.id | [] -> 0

let with_kind kind ~layer name f =
  if not !enabled then f ()
  else begin
    let parent, op =
      if kind = Beside && !stack = [] then (!last_op, !last_op)
      else (parent_id (), !current_op)
    in
    let s =
      fresh ~name ~layer ~kind ~parent ~op ~t0:(Measure.now ()) ~t1:Float.nan
    in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Measure.now ();
        stack := List.tl !stack)
      f
  end

(* A timed span around [f ()]. *)
let span ~layer name f = with_kind Timed ~layer name f

(* A beside re-run: same call, same input, outside the op's accounting. *)
let beside ~layer name f = with_kind Beside ~layer name f

(* One op: a root span whose direct children are accounted against its
   wall time. *)
let op name f =
  if not !enabled then f ()
  else begin
    let saved = !current_op in
    current_op := !next_id;
    last_op := !next_id;
    Fun.protect
      ~finally:(fun () -> current_op := saved)
      (fun () -> with_kind Timed ~layer:"op" name f)
  end

(* An op whose interval is known from timestamps (an open-loop request:
   due time to completion); [children] are (layer, name, t0, t1). *)
let op_interval name ~t0 ~t1 (children : (string * string * float * float) list)
    =
  if !enabled then begin
    let root =
      fresh ~name ~layer:"op" ~kind:Timed ~parent:0 ~op:!next_id ~t0 ~t1
    in
    last_op := root.id;
    List.iter
      (fun (layer, n, a, b) ->
        ignore
          (fresh ~name:n ~layer ~kind:Timed ~parent:root.id ~op:root.id ~t0:a
             ~t1:b))
      children
  end

(* A duration reported by the program for work inside the current span. *)
let derived ~layer name ~ms =
  if !enabled && ms > 0.0 then
    match !stack with
    | [] -> ()
    | p :: _ ->
        let t0 = p.derived_cursor in
        let t1 = t0 +. (ms /. 1000.0) in
        p.derived_cursor <- t1;
        ignore
          (fresh ~name ~layer ~kind:Derived ~parent:p.id ~op:!current_op ~t0
             ~t1)

let dur_ms s = (s.t1 -. s.t0) *. 1000.0

let all () = List.rev !spans

(* Children of every span, by parent id (beside spans excluded: they are
   not part of their parent's interval). *)
let children_index (l : span list) : (int, span list) Hashtbl.t =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.kind <> Beside && s.parent <> 0 then
        Hashtbl.replace h s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt h s.parent)))
    l;
  h

let self_ms (idx : (int, span list) Hashtbl.t) (s : span) : float =
  let kids = Option.value ~default:[] (Hashtbl.find_opt idx s.id) in
  dur_ms s -. Measure.sum (List.map dur_ms kids)

type accounting = {
  wall_ms : float;  (** mean op wall time *)
  layers_ms : float;  (** mean summed duration of an op's direct children *)
  other_ms : float;  (** mean wall - layers: time no layer span covers *)
  self_by_layer : (string * float) list;  (** mean self time per op *)
}

(* Layer accounting over every op root: an op's direct children are its
   layer calls; its own self time is the unaccounted remainder. *)
let account () : accounting =
  let l = all () in
  let idx = children_index l in
  let roots = List.filter (fun s -> s.layer = "op" && s.parent = 0) l in
  let n = List.length roots in
  let fn = float_of_int (max 1 n) in
  let in_ops = List.filter (fun s -> s.op <> 0 && s.kind <> Beside) l in
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.layer <> "op" then
        Hashtbl.replace by_layer s.layer
          (self_ms idx s
          +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer)))
    in_ops;
  let wall = Measure.sum (List.map dur_ms roots) in
  let other = Measure.sum (List.map (self_ms idx) roots) in
  {
    wall_ms = wall /. fn;
    layers_ms = (wall -. other) /. fn;
    other_ms = other /. fn;
    self_by_layer =
      Hashtbl.fold (fun k v acc -> (k, v /. fn) :: acc) by_layer []
      |> List.sort compare;
  }

(* Durations (ms) of every span with this name, in recording order. *)
let durations ?(kind = Timed) name : float list =
  List.filter_map
    (fun s -> if s.name = name && s.kind = kind then Some (dur_ms s) else None)
    (all ())

let json_string (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON (load in chrome://tracing or Perfetto): one
   complete event per span, microseconds from the first span. *)
let write_chrome (path : string) : unit =
  let l = all () in
  let base = List.fold_left (fun m s -> Float.min m s.t0) Float.infinity l in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      let tid = match s.kind with Timed | Derived -> 1 | Beside -> 2 in
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"kind\":%s}}\n"
        (if i = 0 then "" else ",")
        (json_string s.name) (json_string s.layer)
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        tid s.id s.parent s.op
        (json_string
           (match s.kind with
           | Timed -> "timed"
           | Derived -> "derived"
           | Beside -> "beside")))
    l;
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
