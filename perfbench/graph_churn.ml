(* graph-churn: tenant admission and live graph edits.

   A seeded stream of tenant graphs (1500 nodes, 12k edges, feature size
   16) cycling through three degree shapes — power-law 1.5, power-law
   2.2, centralized 0.3 — so the structure-keyed schedule cache both hits
   and misses.  Each tenant is one op:

   1. admit: [Serve.submit_spmm_tuned] (structure statistics, schedule
      cache lookup, a guided tuner search on a miss, hyb construction,
      lowering and codegen) and [Serve.drain];
   2. go live: [Hyb.live] over the admitted configuration and its
      [Kernels.Spmm.sparsetir_hyb_live] binding;
   3. delta: an edit batch of about 1% of nnz through [Hyb.apply_delta],
      [Pipeline.refresh_fact_snapshots] and [sparsetir_hyb_live], then a
      rerun.

   Cold lowering, codegen, format construction, the tuner and the
   simulator walker do most of the work here; format writes (deltas) sit
   beside format builds.  Engine budget 1. *)

open Formats

let nodes = 1500
let edges = 12000
let feat = 16

let shapes =
  [| Workloads.Graphs.Power_law 1.5; Workloads.Graphs.Power_law 2.2;
     Workloads.Graphs.Centralized 0.3 |]

(* Tenants admitted by each set-up: two rounds of the three shapes. *)
let setup_tenants = 6

(* Timed tenants after which the peak heap is read: the compile cache and
   the server's request history grow with every tenant, so the peak is
   taken over a fixed amount of work rather than over however many
   tenants the host managed in the run. *)
let heap_tenants = 40

(* Relative error bound of float32 kernel outputs against the float64
   [Csr.spmm] reference. *)
let tolerance = 1e-5

type tenant = { index : int; a : Csr.t; x : Dense.t; batch : Delta.edit list }

let tenant ~seed (i : int) : tenant =
  let spec =
    { Workloads.Graphs.g_name = Printf.sprintf "churn%d" i; g_nodes = nodes;
      g_edges = edges; g_shape = shapes.(i mod Array.length shapes) }
  in
  let s = (seed * 100_003) + (i * 7) in
  let a = Workloads.Graphs.generate ~seed:s spec in
  let x = Dense.random ~seed:(s + 1) a.Csr.cols feat in
  let batch =
    Delta.random ~seed:(s + 2) ~rows:a.Csr.rows ~cols:a.Csr.cols
      ~edits:(max 1 (Csr.nnz a / 100)) ()
  in
  { index = i; a; x; batch }

let ok (want : Dense.t) (out : Tir.Tensor.t) =
  Measure.rel_err want.Dense.data (Tir.Tensor.to_float_array out) <= tolerance

type result = {
  warm : bool;
  admit_ms : float;
  live_ms : float;
  delta_ms : float;
  check : unit -> bool;  (** compares the outputs with the references *)
  info : Hyb.delta_info;
  config : int;
  steps : (Tir.Ir.func * Gpusim.bindings) list;  (** the admitted kernel *)
}

(* One tenant op.  Its [check] runs after the op: the admitted kernel's
   output against [Csr.spmm], the post-delta rerun's against [Csr.spmm] of
   [Csr.apply_delta] of the admitted CSR. *)
let op (s : Serve.t) (t : tenant) : result =
  let tenant = Printf.sprintf "tenant%d" t.index in
  let t0 = Measure.now () in
  let ad =
    Outcome.span_compiling ~layer:"serve" "serve.admit" (fun () ->
        Serve.submit_spmm_tuned s ~tenant t.a t.x ~feat)
  in
  Spans.span ~layer:"serve" "serve.drain" (fun () -> Serve.drain s);
  let t1 = Measure.now () in
  let lv =
    Spans.span ~layer:"formats" "formats.hyb_live" (fun () ->
        Hyb.live ~c:ad.Serve.ad_config ~k:(Hyb.default_k t.a) t.a)
  in
  ignore
    (Outcome.span_compiling ~layer:"kernels" "kernels.bind_live" (fun () ->
         Kernels.Spmm.sparsetir_hyb_live lv t.x ~feat));
  let t2 = Measure.now () in
  let info =
    Spans.span ~layer:"formats" "formats.delta" (fun () ->
        Hyb.apply_delta lv t.batch)
  in
  Spans.span ~layer:"pipeline" "formats.refresh" (fun () ->
      let iptr, idx, v = Csr.live_tensors (Hyb.live_source lv) in
      Pipeline.refresh_fact_snapshots [ iptr; idx; v ]);
  let k =
    Outcome.span_compiling ~layer:"kernels" "kernels.relink" (fun () ->
        Kernels.Spmm.sparsetir_hyb_live lv t.x ~feat)
  in
  Spans.span ~layer:"engine" "engine.run" (fun () ->
      Gpusim.execute k.Kernels.Spmm.fn k.Kernels.Spmm.bindings);
  let t3 = Measure.now () in
  let steps = ad.Serve.ad_request.Serve.rq_steps in
  let admitted_out = List.assoc "C" (snd (List.hd steps)) in
  let check () =
    ok (Csr.spmm t.a t.x) admitted_out
    && ok (Csr.spmm (Csr.apply_delta t.a t.batch) t.x) k.Kernels.Spmm.out
  in
  {
    warm = ad.Serve.ad_tuner_warm;
    admit_ms = (t1 -. t0) *. 1000.0;
    live_ms = (t2 -. t1) *. 1000.0;
    delta_ms = (t3 -. t2) *. 1000.0;
    check;
    info;
    config = ad.Serve.ad_config;
    steps;
  }

(* What a timed tenant op leaves for the summary once its outputs are
   checked.  Keeping the whole [result] would hold every tenant's graph,
   live format, kernels and outputs until the end of the run, and the
   heap would grow with the run's length. *)
type sample = {
  s_warm : bool;
  s_admit_ms : float;
  s_live_ms : float;
  s_delta_ms : float;
  s_info : Hyb.delta_info;
}

let sample (r : result) : sample =
  { s_warm = r.warm; s_admit_ms = r.admit_ms; s_live_ms = r.live_ms;
    s_delta_ms = r.delta_ms; s_info = r.info }

let sim_us (r : result) : float =
  (Gpusim.run_many ~horizontal_fusion:true Outcome.v100 r.steps).Gpusim.p_time_ms
  *. 1000.0

(* One set-up: empty compile, artifact and schedule caches, then admit
   the first tenants of the stream.  Returns the set-up time, the
   warm/cold admission pattern, the compile-cache misses, the mean
   simulated time of the admitted kernels and the failed ops. *)
let setup ~seed : float * string * int * float * int =
  Pipeline.reset ();
  Engine.reset ();
  Tuner.Cache.reset ();
  let t0 = Measure.now () in
  let tenants =
    List.init setup_tenants (fun i ->
        Spans.span ~layer:"workloads" "workloads.gen" (fun () -> tenant ~seed i))
  in
  let s = Serve.create () in
  let results = List.map (op s) tenants in
  let setup_s = Measure.now () -. t0 in
  let bad = List.length (List.filter (fun r -> not (r.check ())) results) in
  let pattern =
    String.concat "" (List.map (fun r -> if r.warm then "W" else "C") results)
  in
  let sim = Measure.mean (List.map sim_us results) in
  (setup_s, pattern, Pipeline.cache_misses (), sim, bad)

let run ~seed ~seconds ~trace : Outcome.t =
  Engine.set_num_domains 1;
  Spans.enabled := trace;
  let setups = List.init Outcome.setup_reps (fun _ -> setup ~seed) in
  let pick f = List.map f setups in
  let selfcheck =
    Outcome.repeats ~what:"warm/cold admission pattern" Fun.id
      (pick (fun (_, p, _, _, _) -> p))
    @ Outcome.repeats ~what:"compile-cache misses" string_of_int
        (pick (fun (_, _, m, _, _) -> m))
    @ Outcome.repeats ~what:"sim_us" (Printf.sprintf "%.17g")
        (pick (fun (_, _, _, s, _) -> s))
  in
  let setup_s = Measure.median (pick (fun (s, _, _, _, _) -> s)) in
  let setup_bad = List.fold_left ( + ) 0 (pick (fun (_, _, _, _, b) -> b)) in
  let _, pattern, _, sim, _ = List.hd setups in
  let s = Serve.create () in
  let next = ref setup_tenants in
  let tuner_results = ref [] in
  let heap = ref Float.nan in
  (* tenant ops until [t_end]; generation happens outside each op *)
  let loop ~t_end ~traced =
    Spans.enabled := traced;
    let out = ref [] and bad = ref 0 in
    while Measure.now () < t_end do
      let t =
        Spans.span ~layer:"workloads" "workloads.gen" (fun () -> tenant ~seed !next)
      in
      incr next;
        let r = Spans.op "tenant" (fun () -> op s t) in
      if not (r.check ()) then incr bad;
      if traced then begin
        (* beside: the layers [submit_spmm_tuned] reaches internally, re-run
           on the same input after the op *)
        let k = Hyb.default_k t.a in
        ignore
          (Spans.beside ~layer:"formats" "formats.stats" (fun () ->
               Stats.key (Stats.of_csr t.a)));
        ignore
          (Spans.beside ~layer:"formats" "formats.hyb_build" (fun () ->
               Hyb.of_csr ~c:r.config ~k t.a));
        ignore
          (Spans.beside ~layer:"gpusim" "gpusim.walk" (fun () -> sim_us r));
        if not r.warm then
          tuner_results :=
            Spans.beside ~layer:"tuner" "tuner.search" (fun () ->
                Tuner.search_guided
                  (Tuner.spmm_hyb_candidates Outcome.v100 t.a t.x ~feat))
            :: !tuner_results
      end;
      out := sample r :: !out;
      if List.length !out = heap_tenants then heap := Measure.peak_heap_mb ()
    done;
    Spans.enabled := false;
    (List.rev !out, !bad)
  in
  let summarize (rs : sample list) =
    let sel f = List.filter_map f rs in
    let cold = sel (fun r -> if r.s_warm then None else Some r.s_admit_ms) in
    let warm = sel (fun r -> if r.s_warm then Some r.s_admit_ms else None) in
    let deltas = List.map (fun r -> r.s_delta_ms) rs in
    let cycles =
      List.map (fun r -> r.s_admit_ms +. r.s_live_ms +. r.s_delta_ms) rs
    in
    (cold, warm, deltas, cycles)
  in
  if not trace then begin
    let rs, bad = loop ~t_end:(Measure.now () +. seconds) ~traced:false in
    let cold, warm, deltas, cycles = summarize rs in
    {
      Outcome.attempted = List.length rs + (Outcome.setup_reps * setup_tenants);
      failed = bad + setup_bad;
      end_to_end =
        [
          Outcome.m "setup_s" "s" setup_s;
          Outcome.m "peak_heap_mb" "MB"
            (if Float.is_nan !heap then Measure.peak_heap_mb () else !heap);
          Outcome.m "sim_us" "us" sim;
          Outcome.m "p50_ms" "ms" (Measure.median deltas);
          Outcome.m "cap_rate_per_s" "1/s"
            (float_of_int (List.length rs) /. (Measure.sum cycles /. 1000.0));
        ];
      per_layer = [];
      selfcheck;
      summary =
        [
          Printf.sprintf "set-up admission pattern %s" pattern;
          Printf.sprintf
            "%d tenants: admit cold %d x p50 %.2f ms, warm %d x p50 %.2f ms; delta p50 %.2f ms; cycle p50 %.2f ms"
            (List.length rs) (List.length cold) (Measure.median cold)
            (List.length warm) (Measure.median warm) (Measure.median deltas)
            (Measure.median cycles);
        ];
    }
  end
  else begin
    let plain, bad0 = loop ~t_end:(Measure.now () +. (seconds /. 2.0)) ~traced:false in
    let c0 = Outcome.read_counters () in
    let rs, bad1 = loop ~t_end:(Measure.now () +. (seconds /. 2.0)) ~traced:true in
    let c1 = Outcome.read_counters () in
    let cold, warm, deltas, _ = summarize rs in
    let _, _, plain_deltas, _ = summarize plain in
    let n = List.length rs in
    let fsum f = Measure.sum (List.map (fun r -> float_of_int (f r)) rs) /. float_of_int (max 1 n) in
    let med name k = Measure.median (Spans.durations ~kind:k name) in
    let tr = !tuner_results in
    let tsum f = Measure.mean (List.map (fun r -> float_of_int (f r)) tr) in
    let st = Serve.stats s in
    {
      Outcome.attempted =
        List.length plain + n + (Outcome.setup_reps * setup_tenants);
      failed = bad0 + bad1 + setup_bad;
      end_to_end = [];
      per_layer =
        [
          Outcome.m "admit.cold_ms" "ms" (Measure.median cold);
          Outcome.m "admit.warm_ms" "ms" (Measure.median warm);
          Outcome.m "delta.wall_ms" "ms" (Measure.median deltas);
          Outcome.m "formats.stats_ms" "ms" (med "formats.stats" Spans.Beside);
          Outcome.m "formats.hyb_build_ms" "ms" (med "formats.hyb_build" Spans.Beside);
          Outcome.m "formats.delta_ms" "ms" (med "formats.delta" Spans.Timed);
          Outcome.m "formats.refresh_ms" "ms" (med "formats.refresh" Spans.Timed);
          Outcome.m "formats.delta_inplace" "count" (fsum (fun r -> r.s_info.Hyb.di_inplace));
          Outcome.m "formats.delta_migrated" "count" (fsum (fun r -> r.s_info.Hyb.di_migrated));
          Outcome.m "formats.delta_deferred" "count" (fsum (fun r -> r.s_info.Hyb.di_deferred));
          Outcome.m "tuner.search_ms" "ms" (med "tuner.search" Spans.Beside);
          Outcome.m "gpusim.walk_ms" "ms" (med "gpusim.walk" Spans.Beside);
          Outcome.m "tuner.measured" "count" (tsum (fun r -> r.Tuner.measured));
          Outcome.m "tuner.skipped" "count" (tsum (fun r -> r.Tuner.skipped));
          Outcome.m "tuner.failed" "count" (tsum (fun r -> r.Tuner.failed));
          Outcome.m "tuner.warm_ratio" "ratio" st.Serve.s_tuner_warm_ratio;
          Outcome.m "kernels.relink_ms" "ms" (med "kernels.relink" Spans.Timed);
          Outcome.m "engine.run_ms" "ms" (med "engine.run" Spans.Timed);
          Outcome.m "workloads.gen_ms" "ms" (med "workloads.gen" Spans.Timed);
        ]
        @ Outcome.counter_rows ~ops:n c0 c1
        @ Outcome.accounting_rows ~untraced_p50:(Measure.median plain_deltas)
            ~traced_p50:(Measure.median deltas);
      selfcheck;
      summary =
        [ Printf.sprintf "traced: %d tenants (%d cold, %d warm), untraced %d" n
            (List.length cold) (List.length warm) (List.length plain) ];
    }
  end
