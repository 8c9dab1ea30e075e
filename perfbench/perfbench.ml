(* The repository benchmark: two workloads that each load a different
   part of the stack, measured from outside through the public APIs.

     perfbench --workload serve-mix|graph-churn --seed N
               --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is a separate run that records spans around the calls into each layer
   and reports the per-layer metrics, the layer accounting (op wall time
   against the summed layer spans, remainder as other_ms) and the tracing
   overhead.  The spans are written as Chrome trace-event JSON to
   .perfbench/<workload>-seed<N>.json.  Outputs are checked against
   independent references outside the timed regions; the last line of
   standard output is one JSON object:

     {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

   Every workload reports every metric of a kind; a per-layer metric a
   workload does not exercise reads 0.  Deterministic numbers (simulated
   time, compile-cache misses, the graph-churn admission pattern) are
   produced by each of the repeated set-ups, and the allocation of a
   1-domain GraphSAGE epoch by each of two epochs; they must repeat
   exactly, or the run is not correct. *)

let workloads =
  [ ("serve-mix", Serve_mix.run); ("graph-churn", Graph_churn.run) ]

(* The seed used when none is given, and a second seed kept aside for
   checking performance claims. *)
let default_seed = 1
let check_seed = 7

let end_to_end =
  [ ("setup_s", "s"); ("peak_heap_mb", "MB"); ("sim_us", "us");
    ("p50_ms", "ms"); ("cap_rate_per_s", "1/s") ]

let layers = [ "wait"; "serve"; "pipeline"; "engine"; "formats"; "kernels" ]

let per_layer =
  [
    ("serve.build_ms", "ms"); ("serve.submit_ms", "ms"); ("serve.pump_ms", "ms");
    ("serve.service_ms", "ms"); ("serve.gen_late_ms", "ms"); ("serve.p95_ms", "ms");
    ("serve.occupancy", "count"); ("serve.batches", "count");
    ("serve.warm_ratio", "ratio"); ("serve.max_queue", "count");
  ]
  @ List.map
      (fun (f : Serve.Traffic.family) -> ("engine.family_ms." ^ f.Serve.Traffic.f_name, "ms"))
      (Array.to_list Serve.Traffic.families)
  @ [
      ("pipeline.cache_hits", "count"); ("pipeline.cache_misses", "count");
      ("pipeline.cache_evictions", "count"); ("pipeline.history_len", "count");
    ]
  @ List.map (fun n -> ("pipeline.pass_ms." ^ n, "ms")) Outcome.pass_names
  @ [
      ("engine.sparse_ms", "ms"); ("engine.dense_ms", "ms");
      ("engine.alloc_mw", "Mwords");
      ("engine.par_runs", "count"); ("engine.fallback_runs", "count");
      ("engine.tiled_runs", "count"); ("engine.replica_builds", "count");
      ("engine.stolen_chunks", "count"); ("engine.compiles", "count");
      ("gc.major_collections", "count"); ("tir.facts_scans", "count");
      ("admit.cold_ms", "ms"); ("admit.warm_ms", "ms"); ("delta.wall_ms", "ms");
      ("formats.stats_ms", "ms"); ("formats.hyb_build_ms", "ms");
      ("formats.delta_ms", "ms"); ("formats.refresh_ms", "ms");
      ("formats.delta_inplace", "count"); ("formats.delta_migrated", "count");
      ("formats.delta_deferred", "count");
      ("tuner.search_ms", "ms"); ("gpusim.walk_ms", "ms");
      ("tuner.measured", "count"); ("tuner.skipped", "count");
      ("tuner.failed", "count"); ("tuner.warm_ratio", "ratio");
      ("kernels.relink_ms", "ms"); ("engine.run_ms", "ms");
      ("workloads.gen_ms", "ms");
      ("op.wall_ms", "ms"); ("op.layers_ms", "ms"); ("other_ms", "ms");
      ("trace.overhead_ms", "ms");
    ]
  @ List.map (fun l -> ("self." ^ l ^ "_ms", "ms")) layers

(* All digits; a non-finite reading (only possible in a run already marked
   not correct) prints as 0 to keep the line valid JSON. *)
let json_float (v : float) =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " serve-mix | graph-churn");
      ("--seed", Arg.Set_int seed, Printf.sprintf " input seed (default %d; claims are re-checked on %d)" default_seed check_seed);
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace is 0 or 1"; exit 2);
  let traced = !trace = 1 in
  let o = run ~seed:!seed ~seconds:!seconds ~trace:traced in
  let expected = if traced then per_layer else end_to_end in
  let got = if traced then o.Outcome.per_layer else o.Outcome.end_to_end in
  List.iter
    (fun (r : Outcome.metric) ->
      if not (List.mem_assoc r.Outcome.name expected) then
        failwith ("perfbench: unregistered metric " ^ r.Outcome.name))
    got;
  let value name =
    match List.find_opt (fun (r : Outcome.metric) -> r.Outcome.name = name) got with
    | Some r -> r.Outcome.value
    | None -> 0.0
  in
  let rows = List.map (fun (n, u) -> (n, u, value n)) expected in
  (* a per-layer reading with no samples is reported as 0; an end-to-end
     metric must be a finite positive measurement *)
  let rows, bad_e2e =
    if traced then
      (List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) rows, [])
    else
      (rows, List.filter_map (fun (n, _, v) -> if Float.is_finite v && v > 0.0 then None else Some n) rows)
  in
  List.iter print_endline o.Outcome.summary;
  List.iter (fun (n, u, v) -> Printf.printf "%s %s %s = %.6g %s\n" !workload (if traced then "layer" else "e2e") n v u) rows;
  List.iter (fun l -> Printf.printf "SELF-CHECK FAILED: %s\n" l) o.Outcome.selfcheck;
  List.iter (fun n -> Printf.printf "NOT MEASURED: %s\n" n) bad_e2e;
  Printf.printf "%s fail_ratio = %.6g (%d failed of %d attempted)\n" !workload
    (float_of_int o.Outcome.failed /. float_of_int (max 1 o.Outcome.attempted))
    o.Outcome.failed o.Outcome.attempted;
  if traced then begin
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench/%s-seed%d.json" !workload !seed in
    Spans.write_chrome path;
    Printf.printf "trace written to %s (%d spans)\n" path (List.length (Spans.all ()))
  end;
  let correct = o.Outcome.failed = 0 && o.Outcome.selfcheck = [] && bad_e2e = [] && o.Outcome.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.Outcome.attempted o.Outcome.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string n) (json_float v) (Spans.json_string u))
          rows));
  exit (if correct then 0 else 1)
