(* Incremental sparsity deltas (DESIGN.md §3i): differential tests of
   Csr/Hyb.apply_delta against cold rebuilds, the fact-preserving
   invalidation contract (flat scan counts, zero parallel fallbacks), the
   re-bucketing hysteresis, and the Facts-table eviction sweep. *)

open Formats

let with_domains (n : int) (f : unit -> 'a) : 'a =
  let saved = Engine.num_domains () in
  Engine.set_num_domains n;
  Fun.protect ~finally:(fun () -> Engine.set_num_domains saved) f

(* ------------------------------------------------------------------ *)
(* Generators and the model                                            *)
(* ------------------------------------------------------------------ *)

let sparse_gen =
  QCheck.Gen.(
    let* rows = int_range 1 40 in
    let* cols = int_range 1 40 in
    let* nnz = int_range 0 (rows * cols / 2) in
    let* entries =
      list_repeat nnz
        (triple (int_range 0 (rows - 1)) (int_range 0 (cols - 1))
           (map (fun x -> float_of_int x /. 4.0) (int_range 1 32)))
    in
    return (rows, cols, entries))

(* a matrix plus a sequence of edit batches against it *)
let delta_gen =
  QCheck.Gen.(
    let* ((rows, cols, _) as m) = sparse_gen in
    let* batches =
      list_size (int_range 1 4)
        (list_size (int_range 0 20)
           (let* i = int_range 0 (rows - 1) in
            let* j = int_range 0 (cols - 1) in
            let* del = bool in
            let* v = map (fun x -> float_of_int x /. 4.0) (int_range 1 32) in
            return (if del then Delta.Del (i, j) else Delta.Set (i, j, v))))
    in
    return (m, batches))

let delta_arb =
  QCheck.make
    ~print:(fun ((r, c, es), bs) ->
      Printf.sprintf "%dx%d nnz=%d batches=%d" r c (List.length es)
        (List.length bs))
    delta_gen

let csr_of (rows, cols, entries) =
  Csr.of_coo (Coo.of_entries ~rows ~cols entries)

(* Ground-truth model: a coordinate map patched edit by edit (later edits
   win), rebuilt cold through of_coo. *)
let model_of_csr (m : Csr.t) : (int * int, float) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  for i = 0 to m.Csr.rows - 1 do
    for p = m.Csr.indptr.(i) to m.Csr.indptr.(i + 1) - 1 do
      Hashtbl.replace tbl (i, m.Csr.indices.(p)) m.Csr.data.(p)
    done
  done;
  tbl

let model_apply tbl batch =
  List.iter
    (function
      | Delta.Set (i, j, v) -> Hashtbl.replace tbl (i, j) v
      | Delta.Del (i, j) -> Hashtbl.remove tbl (i, j))
    batch

let model_csr ~rows ~cols tbl : Csr.t =
  let entries = Hashtbl.fold (fun (i, j) v acc -> (i, j, v) :: acc) tbl [] in
  Csr.of_coo (Coo.of_entries ~rows ~cols entries)

(* ------------------------------------------------------------------ *)
(* Pure and live CSR deltas vs cold rebuild                            *)
(* ------------------------------------------------------------------ *)

let prop_csr_pure =
  QCheck.Test.make ~count:300 ~name:"Csr.apply_delta = cold rebuild"
    delta_arb
    (fun (((rows, cols, _) as input), batches) ->
      let model = model_of_csr (csr_of input) in
      let patched =
        List.fold_left
          (fun m batch ->
            model_apply model batch;
            Csr.apply_delta m batch)
          (csr_of input) batches
      in
      patched = model_csr ~rows ~cols model)

let prop_csr_live =
  QCheck.Test.make ~count:300
    ~name:"Csr.apply_delta_live = cold rebuild, facts persist" delta_arb
    (fun (((rows, cols, _) as input), batches) ->
      let model = model_of_csr (csr_of input) in
      let lv = Csr.live (csr_of input) in
      let iptr_t, _, _ = Csr.live_tensors lv in
      let scans0 = Tir.Tensor.Facts.scan_count () in
      List.iter
        (fun batch ->
          model_apply model batch;
          ignore (Csr.apply_delta_live lv batch))
        batches;
      let structural = Csr.live_csr lv = model_csr ~rows ~cols model in
      (* the indptr ordering fact must be re-established by span checks,
         never by an O(n) dispatch-time rescan *)
      let fact_ok =
        Tir.Tensor.Facts.holds iptr_t Tir.Tensor.Facts.Monotone_nd
      in
      let scans_flat = Tir.Tensor.Facts.scan_count () = scans0 in
      structural && fact_ok && scans_flat)

(* ------------------------------------------------------------------ *)
(* Live hyb deltas vs cold rebuild (slack = 0)                         *)
(* ------------------------------------------------------------------ *)

let prop_hyb_live =
  QCheck.Test.make ~count:200
    ~name:"Hyb.apply_delta (slack=0) = cold of_csr_ref" delta_arb
    (fun (((rows, cols, _) as input), batches) ->
      let model = model_of_csr (csr_of input) in
      let lv = Hyb.live ~c:2 ~k:2 (csr_of input) in
      List.iter
        (fun batch ->
          model_apply model batch;
          ignore (Hyb.apply_delta lv batch))
        batches;
      Hyb.live_hyb lv = Hyb.of_csr_ref ~c:2 ~k:2 (model_csr ~rows ~cols model))

(* ------------------------------------------------------------------ *)
(* Post-delta SpMM: bit-identical on every engine leg                  *)
(* ------------------------------------------------------------------ *)

let spmm_legs_once (seed : int) =
  let rows = 48 and cols = 32 and feat = 8 in
  let entries =
    List.init 300 (fun e ->
        ( (e * 7 + seed) mod rows,
          (e * 13) mod cols,
          float_of_int (1 + (e mod 9)) /. 4.0 ))
  in
  let a0 = Csr.of_coo (Coo.of_entries ~rows ~cols entries) in
  let x = Dense.random ~seed:(seed + 1) cols feat in
  let model = model_of_csr a0 in
  let clv = Csr.live ~slack:64 a0 in
  let hlv = Hyb.live ~c:2 ~k:2 a0 in
  let csr_k = Kernels.Spmm.sparsetir_csr_live clv x ~feat in
  (* two delta batches: inserts, value overwrites, deletes *)
  let batches =
    [ Delta.random ~seed:(seed + 2) ~rows ~cols ~edits:24 ();
      Delta.random ~seed:(seed + 3) ~rows ~cols ~edits:24 () ]
  in
  let scans0 = Tir.Tensor.Facts.scan_count () in
  List.iter
    (fun b ->
      model_apply model b;
      ignore (Csr.apply_delta_live clv b);
      ignore (Hyb.apply_delta hlv b))
    batches;
  let cold = model_csr ~rows ~cols model in
  (* cold-rebuilt reference kernels on the patched matrix *)
  let cold_csr_k = Kernels.Spmm.sparsetir_no_hyb cold x ~feat in
  let cold_hyb_k, _ = Kernels.Spmm.sparsetir_hyb ~c:2 ~k:2 cold x ~feat in
  (* live hyb kernel is re-derived after the deltas (bucket shapes may
     have changed); unchanged shapes hit the compile cache *)
  let hyb_k = Kernels.Spmm.sparsetir_hyb_live hlv x ~feat in
  let run ?engine nd (k : Kernels.Spmm.compiled) =
    Tir.Tensor.fill_f k.Kernels.Spmm.out 0.0;
    Gpusim.execute ?engine ~num_domains:nd k.Kernels.Spmm.fn
      k.Kernels.Spmm.bindings;
    Tir.Tensor.to_float_array k.Kernels.Spmm.out
  in
  let legs k cold_k tag =
    let interp = run ~engine:Engine.Interp 1 k in
    let serial = run 1 k in
    let par = with_domains 4 (fun () -> run 4 k) in
    let reference = run 1 cold_k in
    Alcotest.(check bool)
      (tag ^ ": interp = cold rebuilt") true (interp = reference);
    Alcotest.(check bool)
      (tag ^ ": compiled serial = cold rebuilt") true (serial = reference);
    Alcotest.(check bool)
      (tag ^ ": 4-domain = cold rebuilt") true (par = reference)
  in
  legs csr_k cold_csr_k "csr live";
  legs hyb_k cold_hyb_k "hyb live";
  (* parallel dispatch stayed on the fast path throughout *)
  let art = Engine.artifact hyb_k.Kernels.Spmm.fn in
  Alcotest.(check int) "hyb live never fell back" 0
    (Engine.fallback_runs art);
  Alcotest.(check bool) "hyb live ran parallel" true
    (Engine.par_runs art >= 1);
  (* every fact need was served by declarations and span re-checks *)
  Alcotest.(check int) "no dispatch-time rescans" 0
    (Tir.Tensor.Facts.scan_count () - scans0)

let test_spmm_legs () =
  spmm_legs_once 11;
  spmm_legs_once 29

(* ------------------------------------------------------------------ *)
(* Re-bucketing hysteresis                                             *)
(* ------------------------------------------------------------------ *)

(* One row of length 4 (bucket 2 at k=2), shrunk by one entry at a time.
   With slack = 1 the row stays in its width-4 bucket at length 2
   (> 4/2 - 1 = 1): deferred, no bucket rebuild.  At length 1 it crosses
   the threshold and migrates.  force_rebucket always restores the cold
   assignment. *)
let test_hysteresis () =
  let rows = 4 and cols = 8 in
  let entries =
    (* row 1 has 4 entries; other rows 1 entry each *)
    [ (0, 1, 1.0); (1, 0, 1.0); (1, 2, 2.0); (1, 4, 3.0); (1, 6, 4.0);
      (2, 3, 1.0); (3, 5, 1.0) ]
  in
  let a0 = Csr.of_coo (Coo.of_entries ~rows ~cols entries) in
  let lv = Hyb.live ~slack:1 ~c:1 ~k:2 a0 in
  (* 4 -> 3: still bucket 2 cold, in place *)
  let d1 = Hyb.apply_delta lv [ Delta.Del (1, 0) ] in
  Alcotest.(check int) "len 3: in place" 1 d1.Hyb.di_inplace;
  Alcotest.(check int) "len 3: no rebuild" 0 d1.Hyb.di_rebuilt;
  (* 3 -> 2: cold would migrate to bucket 1, hysteresis retains *)
  let d2 = Hyb.apply_delta lv [ Delta.Del (1, 2) ] in
  Alcotest.(check int) "len 2: retained in place" 1 d2.Hyb.di_inplace;
  Alcotest.(check int) "len 2: deferred" 1 d2.Hyb.di_deferred;
  Alcotest.(check int) "len 2: no migration" 0 d2.Hyb.di_migrated;
  (* retained layout still multiplies exactly *)
  let model = model_of_csr a0 in
  model_apply model [ Delta.Del (1, 0); Delta.Del (1, 2) ];
  let cold2 = model_csr ~rows ~cols model in
  let x = Dense.random ~seed:5 cols 4 in
  Alcotest.(check bool) "retained hyb multiplies exactly" true
    (Dense.max_abs_diff
       (Hyb.to_dense (Hyb.live_hyb lv))
       (Csr.to_dense cold2)
    < 1e-9);
  ignore x;
  (* 2 -> 1: crosses 4/2 - 1, migrates to bucket 0 *)
  let d3 = Hyb.apply_delta lv [ Delta.Del (1, 4) ] in
  Alcotest.(check int) "len 1: migrated" 1 d3.Hyb.di_migrated;
  Alcotest.(check bool) "len 1: buckets rebuilt" true (d3.Hyb.di_rebuilt > 0);
  model_apply model [ Delta.Del (1, 4) ];
  Alcotest.(check bool) "post-migration = cold" true
    (Hyb.live_hyb lv = Hyb.of_csr_ref ~c:1 ~k:2 (model_csr ~rows ~cols model));
  (* a retained layout snaps back to cold under force_rebucket *)
  let lv2 = Hyb.live ~slack:4 ~c:1 ~k:2 a0 in
  let d4 =
    Hyb.apply_delta lv2 [ Delta.Del (1, 0); Delta.Del (1, 2); Delta.Del (1, 4) ]
  in
  Alcotest.(check int) "wide slack: everything retained" 0 d4.Hyb.di_migrated;
  let model2 = model_of_csr a0 in
  model_apply model2
    [ Delta.Del (1, 0); Delta.Del (1, 2); Delta.Del (1, 4) ];
  let cold = Hyb.of_csr_ref ~c:1 ~k:2 (model_csr ~rows ~cols model2) in
  Alcotest.(check bool) "retained shape differs from cold" true
    (Hyb.live_hyb lv2 <> cold);
  Hyb.force_rebucket lv2;
  Alcotest.(check bool) "force_rebucket = cold" true (Hyb.live_hyb lv2 = cold)

(* ------------------------------------------------------------------ *)
(* Facts live on the tensor                                            *)
(* ------------------------------------------------------------------ *)

(* Declaring facts on thousands of short-lived scratch tensors (what a
   stream of rebuilt buckets produces) must not cost a long-lived tensor its
   declared fact, even when nothing consults that fact meanwhile: the next
   check needs no rescan, and its gather loop still dispatches parallel with
   zero fallbacks. *)
let test_facts_survive_scratch_churn () =
  let open Tir in
  let n = 128 in
  let perm = Array.init n (fun i -> n - 1 - i) in
  let rowmap = Tensor.of_int_array [ n ] perm in
  (* declared: injective by construction (a permutation) *)
  Tensor.Facts.declare rowmap Tensor.Facts.Injective;
  for i = 0 to 4999 do
    let t = Tensor.of_int_array [ 2 ] [| i; i + 1 |] in
    Tensor.Facts.declare t Tensor.Facts.Monotone_inc
  done;
  let scans0 = Tensor.Facts.scan_count () in
  Alcotest.(check bool) "declared fact survived the churn" true
    (Tensor.Facts.holds rowmap Tensor.Facts.Injective);
  Alcotest.(check int) "no rescan needed" 0
    (Tensor.Facts.scan_count () - scans0);
  (* and the parallel gather dispatch still sees it: fb = 0 *)
  let open Builder in
  let m_buf = buffer ~dtype:Dtype.I32 "M" [ int n ] in
  let a_buf = buffer "A" [ int n ] in
  let c_buf = buffer "C" [ int n ] in
  let fn =
    func "delta_churn_gather" [ m_buf; a_buf; c_buf ]
      (for_ ~kind:(Ir.Thread_bind Ir.Block_x) "i" (int n) (fun i ->
           store c_buf
             [ load m_buf [ i ] ]
             (load c_buf [ load m_buf [ i ] ] +: load a_buf [ i ])))
  in
  let a = Tensor.of_float_array [ n ] (Array.init n float_of_int) in
  let c = Tensor.create Dtype.F32 [ n ] in
  Engine.execute ~kind:Engine.Compiled ~num_domains:4 fn [ rowmap; a; c ];
  let art = Engine.artifact fn in
  Alcotest.(check bool) "gather ran parallel" true (Engine.par_runs art >= 1);
  Alcotest.(check int) "no fallback after the churn" 0
    (Engine.fallback_runs art);
  Alcotest.(check int) "dispatch needed no rescan" 0
    (Tensor.Facts.scan_count () - scans0)

(* ------------------------------------------------------------------ *)
(* Tensor.copy and redeclare_span                                      *)
(* ------------------------------------------------------------------ *)

(* A copy gets its own fact cell: declarations and mutations on either side
   never reach the other. *)
let test_copy_owns_facts () =
  let open Tir in
  let declared t = Tensor.Facts.declared t in
  let t = Tensor.of_int_array [ 4 ] [| 1; 3; 5; 7 |] in
  Tensor.Facts.declare t Tensor.Facts.Monotone_inc;
  let c = Tensor.copy t in
  Alcotest.(check bool) "copy starts with no facts" true (declared c = []);
  Tensor.Facts.declare c Tensor.Facts.Injective;
  Alcotest.(check bool) "declaring on the copy leaves the original" true
    (declared t = [ Tensor.Facts.Monotone_inc ]);
  Tensor.set_i c 0 9;
  Alcotest.(check bool) "mutating the copy drops only its facts" true
    (declared c = [] && declared t = [ Tensor.Facts.Monotone_inc ]);
  Tensor.Facts.declare c Tensor.Facts.Monotone_nd;
  Tensor.Facts.declare t Tensor.Facts.Injective;
  Alcotest.(check bool) "declaring on the original leaves the copy" true
    (declared c = [ Tensor.Facts.Monotone_nd ]);
  Tensor.set_i t 0 0;
  Alcotest.(check bool) "mutating the original drops only its facts" true
    (declared t = [] && declared c = [ Tensor.Facts.Monotone_nd ])

let test_redeclare_span () =
  let open Tir in
  let t = Tensor.of_int_array [ 8 ] [| 0; 2; 4; 6; 8; 10; 12; 14 |] in
  Tensor.Facts.declare t Tensor.Facts.Monotone_inc;
  (* in-place patch keeping order: touch once, re-establish over the span *)
  Tensor.set_i t 3 5;
  Tensor.touch t;
  let checks0 = Tensor.Facts.span_check_count () in
  let scans0 = Tensor.Facts.scan_count () in
  let est =
    Tensor.Facts.redeclare_span t
      [ Tensor.Facts.Monotone_inc ] ~lo:3 ~hi:4
  in
  Alcotest.(check bool) "span re-established" true
    (est = [ Tensor.Facts.Monotone_inc ]);
  Alcotest.(check bool) "span checks counted" true
    (Tensor.Facts.span_check_count () > checks0);
  Alcotest.(check int) "no O(n) scan" 0 (Tensor.Facts.scan_count () - scans0);
  Alcotest.(check bool) "holds without scanning" true
    (Tensor.Facts.holds t Tensor.Facts.Monotone_inc);
  Alcotest.(check int) "holds hit the declaration" 0
    (Tensor.Facts.scan_count () - scans0);
  (* a patch that breaks order must not be re-establishable *)
  Tensor.set_i t 5 3;
  Tensor.touch t;
  let est2 =
    Tensor.Facts.redeclare_span t
      [ Tensor.Facts.Monotone_inc ] ~lo:5 ~hi:6
  in
  Alcotest.(check bool) "broken span rejected" true (est2 = []);
  Alcotest.(check bool) "fact gone" true
    (not (Tensor.Facts.holds t Tensor.Facts.Monotone_inc))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "delta"
    [ ("csr", qsuite [ prop_csr_pure; prop_csr_live ]);
      ("hyb", qsuite [ prop_hyb_live ]);
      ( "engine-legs",
        [ Alcotest.test_case "post-delta SpMM bit-identical" `Quick
            test_spmm_legs ] );
      ( "hysteresis",
        [ Alcotest.test_case "slack retention and force_rebucket" `Quick
            test_hysteresis ] );
      ( "facts",
        [ Alcotest.test_case "declared facts survive scratch churn" `Quick
            test_facts_survive_scratch_churn;
          Alcotest.test_case "copy owns its facts" `Quick test_copy_owns_facts;
          Alcotest.test_case "redeclare_span" `Quick test_redeclare_span ] )
    ]
