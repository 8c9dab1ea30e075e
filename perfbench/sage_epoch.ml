(* GraphSAGE training epochs on the compiled engine, run beside serve-mix.

   [Nn.Graphsage.epoch (Sparsetir 2)] — the two-layer mean-aggregation
   model, forward and backward, with the hyb SpMM — on the cora stand-in
   ([Workloads.Graphs], 2708 nodes, about 10.5k edges, drawn from the
   seed), features 16/16/8: hyb SpMM plus dense GEMM/ReLU kernels on the
   domain-parallel runtime.

   The epoch is not a timed workload of its own: its wall time follows
   the host's speed, which on a shared 2-core x86-64 host drifts by about
   20% over tens of seconds, and the run medians of ten 30-s runs spread
   by up to 34% of their median (at 2 domains; 24% over six runs at 1
   domain), past any bound a wall-time metric may carry.  It runs after
   serve-mix's timed phases instead: every run checks its output and the
   exact repeat of its 1-domain allocation, and the traced run reports
   the engine layer rows from it. *)

open Formats

let in_feat = 16
let hidden = 16
let out_feat = 8

(* Domain budget of the traced epochs: every core of a 2-core host. *)
let domains = 2

(* Relative error bound of the float32 epoch output against the float64
   host forward pass. *)
let tolerance = 1e-4

(* 1-domain epochs whose allocation must repeat exactly. *)
let alloc_epochs = 2

(* Traced epochs at [domains]. *)
let traced_epochs = 6

let graph ~seed : Csr.t =
  Workloads.Graphs.normalize_rows
    (Workloads.Graphs.generate ~seed (Workloads.Graphs.find_spec "cora"))

(* The epoch's SpMM steps are the funcs [Nn.Graphsage.spmm_step] names
   "spmm_*"; the rest are dense GEMM, ReLU and zeroing steps. *)
let is_sparse (fn : Tir.Ir.func) =
  String.starts_with ~prefix:"spmm" fn.Tir.Ir.fn_name

(* Minor words the main domain allocates during [f ()]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

type t = {
  attempted : int;  (** epochs whose output was checked *)
  failed : int;
  selfcheck : string list;
  per_layer : Outcome.metric list;  (** [] when untraced *)
}

(* Compile the epoch, run [alloc_epochs] 1-domain epochs (their minor
   words must repeat exactly) and, when [traced], [traced_epochs] epochs
   at [domains] with one beside span per engine step — the same
   [Gpusim.execute] calls [Nn.Graphsage.execute] makes.  Every epoch's
   output is checked against the host forward pass.  Leaves the engine
   budget at 1 domain. *)
let run ~seed ~traced : t =
  let a = graph ~seed in
  let model =
    Nn.Graphsage.epoch (Nn.Graphsage.Sparsetir 2) a ~in_feat ~hidden ~out_feat
      ~seed ()
  in
  let want =
    (Nn.Graphsage.forward_reference a ~in_feat ~hidden ~out_feat ~seed ())
      .Dense.data
  in
  let bad = ref 0 and n = ref 0 in
  let check () =
    incr n;
    if
      Measure.rel_err want (Tir.Tensor.to_float_array model.Nn.Graphsage.h2)
      > tolerance
    then incr bad
  in
  Engine.set_num_domains 1;
  Nn.Graphsage.execute model;
  check ();
  let alloc =
    List.init alloc_epochs (fun _ ->
        let w = minor_words (fun () -> Nn.Graphsage.execute model) in
        check ();
        w)
  in
  let selfcheck =
    Outcome.repeats ~what:"1-domain epoch minor words" (Printf.sprintf "%.0f")
      alloc
  in
  let per_layer =
    if not traced then []
    else begin
      Engine.set_num_domains domains;
      Nn.Graphsage.execute model;
      check ();
      let par0, fb0, tiled0 = Engine.parallel_totals () in
      let rep0 = Engine.replica_builds () and stolen0 = Engine.stolen_chunks () in
      for _ = 1 to traced_epochs do
        List.iter
          (fun (fn, b) ->
            Spans.beside ~layer:"engine"
              (if is_sparse fn then "engine.sparse" else "engine.dense")
              (fun () -> Gpusim.execute fn b))
          model.Nn.Graphsage.steps;
        check ()
      done;
      let par1, fb1, tiled1 = Engine.parallel_totals () in
      let rep1 = Engine.replica_builds () and stolen1 = Engine.stolen_chunks () in
      Engine.set_num_domains 1;
      ignore
        (Spans.beside ~layer:"gpusim" "gpusim.walk" (fun () ->
             Nn.Graphsage.profile Outcome.v100 model));
      let per x = float_of_int x /. float_of_int traced_epochs in
      let per_epoch name =
        Measure.sum (Spans.durations ~kind:Spans.Beside name)
        /. float_of_int traced_epochs
      in
      [
        Outcome.m "engine.sparse_ms" "ms" (per_epoch "engine.sparse");
        Outcome.m "engine.dense_ms" "ms" (per_epoch "engine.dense");
        Outcome.m "engine.alloc_mw" "Mwords" (List.hd alloc /. 1e6);
        Outcome.m "engine.par_runs" "count" (per (par1 - par0));
        Outcome.m "engine.fallback_runs" "count" (per (fb1 - fb0));
        Outcome.m "engine.tiled_runs" "count" (per (tiled1 - tiled0));
        Outcome.m "engine.replica_builds" "count" (per (rep1 - rep0));
        Outcome.m "engine.stolen_chunks" "count" (per (stolen1 - stolen0));
        Outcome.m "gpusim.walk_ms" "ms"
          (Measure.median (Spans.durations ~kind:Spans.Beside "gpusim.walk"));
      ]
    end
  in
  { attempted = !n; failed = !bad; selfcheck; per_layer }
