(* Compile cache: identical Stage I func + schedule trace is served from the
   cache (and evaluates identically); a differing schedule trace misses. *)

open Formats

let graph () =
  Workloads.Graphs.generate ~seed:7
    { Workloads.Graphs.g_name = "cache"; g_nodes = 120; g_edges = 700;
      g_shape = Workloads.Graphs.Power_law 1.8 }

(* Key stability: the same Stage I func built twice by separate Builder
   invocations (fresh internal ids) must produce the same cache key. *)
let test_key_structural () =
  let a = graph () in
  let k1 = Pipeline.Cache.key (Kernels.Spmm.stage1 a ~feat:16) ~trace:"t" in
  let k2 = Pipeline.Cache.key (Kernels.Spmm.stage1 a ~feat:16) ~trace:"t" in
  Alcotest.(check string) "keys agree across builds" k1 k2;
  let k3 = Pipeline.Cache.key (Kernels.Spmm.stage1 a ~feat:32) ~trace:"t" in
  Alcotest.(check bool) "different func, different key" false (String.equal k1 k3)

let test_hit_same_trace () =
  Pipeline.reset ();
  let a = graph () in
  let feat = 16 in
  let x = Dense.random ~seed:2 a.Csr.cols feat in
  let c1 = Kernels.Spmm.sparsetir_no_hyb ~row_group:4 ~vec:1 a x ~feat in
  Alcotest.(check int) "cold build misses" 1 (Pipeline.cache_misses ());
  Alcotest.(check int) "cold build has no hits" 0 (Pipeline.cache_hits ());
  let c2 = Kernels.Spmm.sparsetir_no_hyb ~row_group:4 ~vec:1 a x ~feat in
  Alcotest.(check int) "identical rebuild hits" 1 (Pipeline.cache_hits ());
  Alcotest.(check int) "no extra miss" 1 (Pipeline.cache_misses ());
  (* the cached func evaluates identically *)
  Gpusim.execute c1.Kernels.Spmm.fn c1.Kernels.Spmm.bindings;
  let out1 = Tir.Tensor.to_float_array c1.Kernels.Spmm.out in
  Gpusim.execute c2.Kernels.Spmm.fn c2.Kernels.Spmm.bindings;
  let out2 = Tir.Tensor.to_float_array c2.Kernels.Spmm.out in
  Alcotest.(check bool) "cached func evaluates identically" true (out1 = out2)

let test_miss_different_trace () =
  Pipeline.reset ();
  let a = graph () in
  let feat = 16 in
  let x = Dense.random ~seed:2 a.Csr.cols feat in
  ignore (Kernels.Spmm.sparsetir_no_hyb ~row_group:4 ~vec:1 a x ~feat);
  ignore (Kernels.Spmm.sparsetir_no_hyb ~row_group:8 ~vec:1 a x ~feat);
  Alcotest.(check int) "different schedule trace misses" 2
    (Pipeline.cache_misses ());
  Alcotest.(check int) "and never hits" 0 (Pipeline.cache_hits ())

(* Run (not just build) the tuner path: repeated searches over the same
   matrix hit the cache. *)
let test_tuner_search_hits () =
  Pipeline.reset ();
  let a = graph () in
  let feat = 16 in
  let x = Dense.random ~seed:3 a.Csr.cols feat in
  let search () =
    Tuner.search (Tuner.spmm_no_hyb_candidates Gpusim.Spec.v100 a x ~feat)
  in
  let r1 = search () in
  Alcotest.(check bool) "cold search misses" true (r1.Tuner.cache_misses > 0);
  let r2 = search () in
  Alcotest.(check int) "warm search misses nothing" 0 r2.Tuner.cache_misses;
  (* every candidate build is served from the cache the second time *)
  Alcotest.(check int) "warm search is fully cached"
    (List.length r2.Tuner.trials) r2.Tuner.cache_hits;
  Alcotest.(check string) "same winner" r1.Tuner.best_label r2.Tuner.best_label

(* ---------------- declared-fact persistence ---------------- *)

(* Declared facts live on the bound tensors themselves, so a warm rebuild
   (a cache hit) and a re-execution of the first build's tensors dispatch
   without a single rescan.  The graph's degrees are bounded (Centralized
   shape) so every hyb bucket row map is strictly increasing — all facts
   involved are declarations. *)
let test_facts_survive_cache_hit () =
  Pipeline.reset ();
  let a =
    Workloads.Graphs.generate ~seed:11
      { Workloads.Graphs.g_name = "cache_facts"; g_nodes = 80; g_edges = 320;
        g_shape = Workloads.Graphs.Centralized 0.1 }
  in
  let feat = 8 in
  let x = Dense.random ~seed:4 a.Csr.cols feat in
  let build () = fst (Kernels.Spmm.sparsetir_hyb ~c:2 ~k:6 a x ~feat) in
  let exec (c : Kernels.Spmm.compiled) =
    Gpusim.execute ~num_domains:2 c.Kernels.Spmm.fn c.Kernels.Spmm.bindings
  in
  let n0 = Tir.Tensor.Facts.scan_count () in
  let c1 = build () in
  exec c1;
  let hits0 = Pipeline.cache_hits () in
  let c2 = build () in
  Alcotest.(check bool) "rebuild was a cache hit" true
    (Pipeline.cache_hits () > hits0);
  exec c2;
  exec c1;
  Alcotest.(check int) "warm rebuild and re-exec scan nothing" n0
    (Tir.Tensor.Facts.scan_count ())

(* ---------------- LRU eviction ---------------- *)

(* Tiny distinct Stage III funcs for populating a standalone cache. *)
let mk_func name =
  let open Tir.Builder in
  let b = buffer ~dtype:Tir.Dtype.F32 name [ int 1 ] in
  func name [ b ] (store b [ int 0 ] (float 0.0))

let test_lru_order () =
  let module C = Pipeline.Cache in
  let t = C.create ~capacity:2 () in
  ignore (C.add t "k1" (mk_func "lru1"));
  ignore (C.add t "k2" (mk_func "lru2"));
  (* touch k1 so k2 becomes least-recently-used *)
  ignore (C.find t "k1");
  ignore (C.add t "k3" (mk_func "lru3"));
  Alcotest.(check int) "capacity bound respected" 2 (C.size t);
  Alcotest.(check int) "one eviction counted" 1 (C.evictions t);
  Alcotest.(check bool) "recently touched entry survives" true
    (Option.is_some (C.find t "k1"));
  Alcotest.(check bool) "LRU entry evicted" true
    (Option.is_none (C.find t "k2"))

(* Evicting or clearing a cache entry must also drop its artifact from the
   engine memo, otherwise the memo grows without bound even though the cache
   is capped. *)
let test_evict_unregisters_artifact () =
  Engine.reset ();
  let module C = Pipeline.Cache in
  let t = C.create ~capacity:1 () in
  let f1 = mk_func "evict1" in
  ignore (Engine.artifact f1);
  ignore (C.add t "k1" f1);
  Alcotest.(check int) "artifact memoized" 1 (Engine.memo_size ());
  let f2 = mk_func "evict2" in
  ignore (C.add t "k2" f2);
  Alcotest.(check int) "eviction drops the engine artifact" 0
    (Engine.memo_size ());
  ignore (Engine.artifact f2);
  C.clear t;
  Alcotest.(check int) "clear drops the engine artifact" 0
    (Engine.memo_size ())

(* End-to-end through the pipeline's shared cache: with capacity 1 the second
   schedule evicts the first, the resident entry still hits, and the evicted
   one misses (and recompiles) on rebuild. *)
let test_pipeline_capacity () =
  Pipeline.reset ();
  let saved = Pipeline.cache_capacity () in
  Fun.protect
    ~finally:(fun () -> Pipeline.set_cache_capacity saved)
    (fun () ->
      Pipeline.set_cache_capacity 1;
      let a = graph () in
      let feat = 16 in
      let x = Dense.random ~seed:2 a.Csr.cols feat in
      ignore (Kernels.Spmm.sparsetir_no_hyb ~row_group:4 ~vec:1 a x ~feat);
      ignore (Kernels.Spmm.sparsetir_no_hyb ~row_group:8 ~vec:1 a x ~feat);
      Alcotest.(check int) "second schedule evicts the first" 1
        (Pipeline.cache_evictions ());
      ignore (Kernels.Spmm.sparsetir_no_hyb ~row_group:8 ~vec:1 a x ~feat);
      Alcotest.(check int) "resident entry hits" 1 (Pipeline.cache_hits ());
      ignore (Kernels.Spmm.sparsetir_no_hyb ~row_group:4 ~vec:1 a x ~feat);
      Alcotest.(check int) "evicted entry misses again" 3
        (Pipeline.cache_misses ());
      Alcotest.(check int) "and evicts the other" 2
        (Pipeline.cache_evictions ()))

let () =
  Alcotest.run "cache"
    [ ( "compile_cache",
        [ Alcotest.test_case "structural key" `Quick test_key_structural;
          Alcotest.test_case "hit on same trace" `Quick test_hit_same_trace;
          Alcotest.test_case "miss on different trace" `Quick
            test_miss_different_trace;
          Alcotest.test_case "tuner search hits" `Quick test_tuner_search_hits;
          Alcotest.test_case "declared facts survive cache hit" `Quick
            test_facts_survive_cache_hit ] );
      ( "lru",
        [ Alcotest.test_case "LRU order" `Quick test_lru_order;
          Alcotest.test_case "evict unregisters artifact" `Quick
            test_evict_unregisters_artifact;
          Alcotest.test_case "pipeline capacity bound" `Quick
            test_pipeline_capacity ] ) ]
