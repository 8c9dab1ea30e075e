(* Pass-manager driver for the staged compilation pipeline.

   [run] threads a func through a list of passes, checking stage contracts
   between consecutive passes, running the IR verifier at every stage
   boundary, timing each pass and recording IR size (expression/statement
   nodes, loops, buffers) before and after.  Results are memoized in a
   process-wide compile cache keyed on the printed input func plus the
   pipeline's schedule trace, so tuner searches and bench sweeps that
   rebuild identical candidates compile once.

   When the pipeline ends at Stage III and the selected engine is
   [Engine.Compiled] (the default), a terminal codegen stage translates the
   flat func to native closures; the artifact is memoized in the engine's
   identity-keyed memo, keyed on the lowered func the compile cache returns,
   so warm builds neither re-lower nor re-compile. *)

module Pass = Pass
module Verify = Verify
module Cache = Cache
module Engine = Engine

open Tir

type stage = Pass.stage = Coord | Position | Flat

exception Verify_error = Verify.Verify_error

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type ir_size = { sz_nodes : int; sz_loops : int; sz_buffers : int }

let measure (fn : Ir.func) : ir_size =
  let nodes = ref 0 and loops = ref 0 in
  Analysis.iter_stmt
    ~enter_expr:(fun _ -> incr nodes)
    (fun s ->
      incr nodes;
      match s with
      | Ir.For _ | Ir.Sp_iter_stmt _ -> incr loops
      | _ -> ())
    fn.Ir.fn_body;
  {
    sz_nodes = !nodes;
    sz_loops = !loops;
    sz_buffers = List.length (Analysis.collect_buffers_stmt fn.Ir.fn_body);
  }

type pass_stat = {
  ps_name : string;
  ps_ms : float;
  ps_before : ir_size;
  ps_after : ir_size;
}

type stats = {
  st_func : string;            (* name of the pipeline's input func *)
  st_cached : bool;
  st_ms : float;               (* total wall time, incl. verification *)
  st_passes : pass_stat list;  (* execution order; [] on a cache hit *)
}

let history : stats list ref = ref []
let shared_cache = Cache.create ()
let cache_hits () = Cache.hits shared_cache
let cache_misses () = Cache.misses shared_cache
let cache_evictions () = Cache.evictions shared_cache

(* Bound on the shared compile cache (entries; an evicted entry's Engine
   artifact is unregistered in the same step). *)
let set_cache_capacity (c : int) = Cache.set_capacity shared_cache c
let cache_capacity () = Cache.capacity shared_cache

(* No-op, kept for existing callers: facts live on the tensors themselves
   (Tir.Tensor.Facts), so a delta's re-established facts are seen by every
   cached kernel without a refresh. *)
let refresh_fact_snapshots (_ : Tir.Tensor.t list) : unit = ()
let all_stats () = List.rev !history
let last_stats () = match !history with [] -> None | s :: _ -> Some s

let reset () =
  history := [];
  Cache.clear shared_cache

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let trace_of (passes : Pass.t list) : string =
  String.concat ";" (List.map (fun (p : Pass.t) -> p.Pass.p_trace) passes)

let run ?(verify = true) ?(use_cache = true) ?(dump_ir = false)
    ?(start : stage = Coord) ?engine (passes : Pass.t list) (fn : Ir.func) :
    Ir.func =
  let t0 = Unix.gettimeofday () in
  let engine =
    match engine with Some k -> k | None -> !Engine.default_kind
  in
  (* Terminal codegen stage: only applies when the pipeline actually ends at
     Stage III (its output stage is static — the last pass's contract). *)
  let final_stage =
    List.fold_left (fun _ (p : Pass.t) -> p.Pass.p_output) start passes
  in
  let codegen = engine = Engine.Compiled && final_stage = Flat in
  let dump tag f =
    if dump_ir then
      Printf.printf "=== %s: %s ===\n%s\n%!" fn.Ir.fn_name tag
        (Printer.func_to_string f)
  in
  let compile () =
    if verify then Verify.check ~pass:"<pipeline input>" start fn;
    dump (Printf.sprintf "input (%s)" (Pass.stage_to_string start)) fn;
    let _, out, rev_stats =
      List.fold_left
        (fun (stage, cur, acc) (p : Pass.t) ->
          if p.Pass.p_input <> stage then
            raise
              (Verify.Verify_error
                 {
                   ve_pass = p.Pass.p_name;
                   ve_stage = stage;
                   ve_message =
                     Printf.sprintf
                       "stage contract mismatch: pass expects %s input but \
                        the pipeline is at %s"
                       (Pass.stage_to_string p.Pass.p_input)
                       (Pass.stage_to_string stage);
                   ve_excerpt = Verify.excerpt cur;
                 });
          let before = measure cur in
          let t = Unix.gettimeofday () in
          let next = p.Pass.p_transform cur in
          let ms = (Unix.gettimeofday () -. t) *. 1000.0 in
          if verify then Verify.check ~pass:p.Pass.p_name p.Pass.p_output next;
          dump
            (Printf.sprintf "after %s (%s)" p.Pass.p_name
               (Pass.stage_to_string p.Pass.p_output))
            next;
          ( p.Pass.p_output,
            next,
            { ps_name = p.Pass.p_name; ps_ms = ms; ps_before = before;
              ps_after = measure next }
            :: acc ))
        (start, fn, []) passes
    in
    (out, List.rev rev_stats)
  in
  (* Time artifact generation as a pass of its own ([Engine.artifact] is
     identity-memoized, so re-runs over a cached func cost a hash lookup). *)
  let codegen_stat (f : Ir.func) : pass_stat =
    let sz = measure f in
    let t = Unix.gettimeofday () in
    ignore (Engine.artifact f);
    {
      ps_name = "codegen";
      ps_ms = (Unix.gettimeofday () -. t) *. 1000.0;
      ps_before = sz;
      ps_after = sz;
    }
  in
  let build () =
    let f, ps = compile () in
    (f, false, if codegen then ps @ [ codegen_stat f ] else ps)
  in
  let out, cached, pass_stats =
    if not use_cache then build ()
    else
      let k = Cache.key fn ~trace:(trace_of passes) in
      match Cache.find shared_cache k with
      | Some e -> (e.Cache.e_ir, true, [])
      | None ->
          let ((f, _, _) as r) = build () in
          ignore (Cache.add shared_cache k f);
          r
  in
  history :=
    {
      st_func = fn.Ir.fn_name;
      st_cached = cached;
      st_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
      st_passes = pass_stats;
    }
    :: !history;
  out

(* ------------------------------------------------------------------ *)
(* Convenience pipelines                                               *)
(* ------------------------------------------------------------------ *)

(* Both lowering passes: Stage I -> Stage III, verified at each boundary. *)
let lower ?verify ?use_cache ?dump_ir ?engine fn =
  run ?verify ?use_cache ?dump_ir ?engine
    [ Pass.lower_iterations; Pass.lower_buffers ] fn

(* The standard kernel pipeline: optional Stage I rewrites, the two
   lowering passes, then a flat-stage schedule.  [trace] must encode every
   parameter [sched] closes over. *)
let compile ?verify ?use_cache ?dump_ir ?engine ?(coord = []) ~name ~trace
    (sched : Ir.func -> Ir.func) (fn : Ir.func) : Ir.func =
  run ?verify ?use_cache ?dump_ir ?engine
    (coord
    @ [ Pass.lower_iterations; Pass.lower_buffers;
        Pass.schedule ~name ~trace sched ])
    fn

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let stats_to_string (st : stats) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s: %.3f ms%s\n" st.st_func st.st_ms
    (if st.st_cached then " (cache hit)" else "");
  List.iter
    (fun p ->
      Printf.bprintf b
        "  %-20s %8.3f ms   nodes %5d -> %-5d  loops %2d -> %-2d  bufs %2d -> %-2d\n"
        p.ps_name p.ps_ms p.ps_before.sz_nodes p.ps_after.sz_nodes
        p.ps_before.sz_loops p.ps_after.sz_loops p.ps_before.sz_buffers
        p.ps_after.sz_buffers)
    st.st_passes;
  Buffer.contents b

(* Aggregate per-pass totals over every pipeline run since [reset]. *)
let report () : string =
  let b = Buffer.create 512 in
  let runs = all_stats () in
  let compiles = List.filter (fun s -> not s.st_cached) runs in
  Printf.bprintf b
    "pipeline: %d runs (%d compiled, %d served from cache); compile cache: \
     %d hits / %d misses / %d evictions, %d entries (capacity %d)\n"
    (List.length runs) (List.length compiles)
    (List.length runs - List.length compiles)
    (cache_hits ()) (cache_misses ()) (cache_evictions ())
    (Cache.size shared_cache) (Cache.capacity shared_cache);
  (let fused, hoisted, linear = Engine.fusion_totals () in
   Printf.bprintf b
     "engine fusion (%s): %d fused stores, %d hoisted index exprs, %d \
      strength-reduced offsets across %d compiles\n"
     (if Engine.fusion () then "on" else "off")
     fused hoisted linear (Engine.compiles ()));
  (let par, fb, tiled = Engine.parallel_totals () in
   if par + fb > 0 then
     Printf.bprintf b
       "engine parallel: %d parallel runs (%d tiled), %d serial fallbacks \
        (%s)\n"
       par tiled fb
       (Engine.reasons_to_string (Engine.reason_totals ())));
  let order = ref [] in
  let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt tbl p.ps_name with
          | Some (n, ms) ->
              incr n;
              ms := !ms +. p.ps_ms
          | None ->
              order := p.ps_name :: !order;
              Hashtbl.replace tbl p.ps_name (ref 1, ref p.ps_ms))
        s.st_passes)
    runs;
  if !order <> [] then
    Printf.bprintf b "%-22s %6s %12s %12s\n" "pass" "runs" "total ms"
      "avg ms";
  List.iter
    (fun name ->
      let n, ms = Hashtbl.find tbl name in
      Printf.bprintf b "%-22s %6d %12.3f %12.3f\n" name !n !ms
        (!ms /. float_of_int !n))
    (List.rev !order);
  Buffer.contents b
