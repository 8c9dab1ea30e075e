(* What one workload run hands back to [Perfbench]: op counts, metric
   rows and the failed self-checks. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;  (** ops whose outputs were checked *)
  failed : int;  (** ops that raised or produced a wrong output *)
  end_to_end : metric list;  (** from untraced measurement *)
  per_layer : metric list;  (** from the traced run; [] when untraced *)
  selfcheck : string list;  (** deterministic numbers that did not repeat *)
  summary : string list;  (** human-readable lines printed before the JSON *)
}

let m name unit_ value = { name; value; unit_ }

(* Set-up repeats per run; [setup_s] reports their median, and the
   deterministic numbers each repeat produces are compared exactly. *)
let setup_reps = 3

(* Checks that every repeat produced the same value; returns a self-check
   failure line otherwise. *)
let repeats ~(what : string) (show : 'a -> string) (xs : 'a list) :
    string list =
  match xs with
  | [] -> []
  | x :: rest ->
      if List.for_all (fun y -> y = x) rest then []
      else
        [ Printf.sprintf "%s did not repeat across set-ups: %s" what
            (String.concat " / " (List.map show xs)) ]

(* Set-up compiles every kernel a workload runs; a codegen run after it
   means the timed phase paid for compilation. *)
let no_compiles ~(since : int) : string list =
  let n = Engine.compiles () - since in
  if n = 0 then []
  else [ Printf.sprintf "%d engine compiles during the timed phase" n ]

(* Pipeline history entries recorded since [old] was the history, oldest
   first.  [Pipeline.history] is a cons list, so the new entries are the
   prefix in front of [old]. *)
let pipeline_since (old : Pipeline.stats list) : Pipeline.stats list =
  let rec go acc l =
    if l == old then acc
    else match l with [] -> acc | x :: r -> go (x :: acc) r
  in
  go [] !Pipeline.history

(* Pass groups reported per op: the two lowering passes, codegen, every
   other pass (coordinate rewrites and loop schedules, which carry
   kernel-specific names) as "schedule", and the rest of each pipeline
   run's wall time — cache-key printing, lookup and verification — as
   "lookup_verify". *)
let pass_names =
  [ "lower_iterations"; "lower_buffers"; "schedule"; "codegen"; "lookup_verify" ]

let pass_group (name : string) : string =
  match name with
  | "lower_iterations" | "lower_buffers" | "codegen" -> name
  | _ -> "schedule"

(* Per-group wall time summed over pipeline entries, for [pass_names]. *)
let pass_ms (entries : Pipeline.stats list) : (string * float) list =
  let tbl = Hashtbl.create 8 in
  let add k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (st : Pipeline.stats) ->
      let passes =
        List.fold_left
          (fun a (p : Pipeline.pass_stat) ->
            add (pass_group p.Pipeline.ps_name) p.Pipeline.ps_ms;
            a +. p.Pipeline.ps_ms)
          0.0 st.Pipeline.st_passes
      in
      add "lookup_verify" (Float.max 0.0 (st.Pipeline.st_ms -. passes)))
    entries;
  List.map
    (fun n -> (n, Option.value ~default:0.0 (Hashtbl.find_opt tbl n)))
    pass_names

(* Record the pipeline work done inside the current span as derived child
   spans, one per pass. *)
let derive_passes (entries : Pipeline.stats list) : unit =
  List.iter
    (fun (n, ms) -> Spans.derived ~layer:"pipeline" ("pipeline." ^ n) ~ms)
    (pass_ms entries)

(* A span around [f ()] that also records the pipeline passes run inside
   it. *)
let span_compiling ~layer name f =
  if not !Spans.enabled then f ()
  else
    Spans.span ~layer name (fun () ->
        let old = !Pipeline.history in
        let r = f () in
        derive_passes (pipeline_since old);
        r)

(* Per-op counter readings for the pipeline, engine and GC layers. *)
type counters = {
  c_hits : int;
  c_misses : int;
  c_evictions : int;
  c_compiles : int;
  c_major : int;
  c_facts_scans : int;
  c_history : Pipeline.stats list;
}

let read_counters () =
  {
    c_hits = Pipeline.cache_hits ();
    c_misses = Pipeline.cache_misses ();
    c_evictions = Pipeline.cache_evictions ();
    c_compiles = Engine.compiles ();
    c_major = (Gc.quick_stat ()).Gc.major_collections;
    c_facts_scans = Tir.Tensor.Facts.scan_count ();
    c_history = !Pipeline.history;
  }

(* Counter rows per op between two readings. *)
let counter_rows ~(ops : int) (a : counters) (b : counters) : metric list =
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  let passes = pass_ms (pipeline_since a.c_history) in
  [
    m "pipeline.cache_hits" "count" (per (b.c_hits - a.c_hits));
    m "pipeline.cache_misses" "count" (per (b.c_misses - a.c_misses));
    m "pipeline.cache_evictions" "count" (per (b.c_evictions - a.c_evictions));
    m "engine.compiles" "count" (float_of_int (b.c_compiles - a.c_compiles));
    m "gc.major_collections" "count" (per (b.c_major - a.c_major));
    m "tir.facts_scans" "count" (per (b.c_facts_scans - a.c_facts_scans));
    m "pipeline.history_len" "count" (float_of_int (List.length !Pipeline.history));
  ]
  @ List.map
      (fun (n, ms) ->
        m ("pipeline.pass_ms." ^ n) "ms" (ms /. float_of_int (max 1 ops)))
      passes

(* Layer accounting rows from the recorded spans, plus the tracing
   overhead: traced minus untraced median op latency. *)
let accounting_rows ~(untraced_p50 : float) ~(traced_p50 : float) : metric list
    =
  let a = Spans.account () in
  [
    m "op.wall_ms" "ms" a.Spans.wall_ms;
    m "op.layers_ms" "ms" a.Spans.layers_ms;
    m "other_ms" "ms" a.Spans.other_ms;
    m "trace.overhead_ms" "ms" (traced_p50 -. untraced_p50);
  ]
  @ List.map
      (fun (layer, ms) -> m ("self." ^ layer ^ "_ms") "ms" ms)
      a.Spans.self_by_layer

let v100 = Gpusim.Spec.v100
