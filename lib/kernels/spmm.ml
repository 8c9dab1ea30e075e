(* SpMM kernels (S4.2.1): the SparseTIR CSR kernel under the scheduling
   strategies of each baseline system, and the composable-format hyb kernel
   produced by format decomposition.

   Every function returns a compiled Stage III function together with the
   tensor bindings for its parameters; the output buffer is named "C".
   Compilation goes through [Pipeline.compile]: the two lowering passes plus
   a flat-stage schedule pass, verified at each stage boundary and memoized
   in the compile cache (the trace strings encode every schedule
   parameter). *)

open Tir
open Formats

type compiled = {
  fn : Ir.func;
  bindings : Gpusim.bindings;
  out : Tensor.t; (* the "C" tensor, rows x feat *)
}

(* Stage I CSR SpMM (Figure 3). *)
let stage1 (a : Csr.t) ~(feat : int) : Ir.func =
  let open Builder in
  let m = a.Csr.rows and n = a.Csr.cols and nz = max 1 (Csr.nnz a) in
  let indptr_buf = buffer ~dtype:Dtype.I32 "A_indptr" [ int (m + 1) ] in
  let indices_buf = buffer ~dtype:Dtype.I32 "A_indices" [ int nz ] in
  let i_ax = dense_fixed "I" ~length:(int m) in
  let j_ax =
    sparse_variable "J" ~parent:i_ax ~length:(int n) ~nnz:(int nz)
      ~indptr:indptr_buf ~indices:indices_buf
  in
  let k_ax = dense_fixed "K" ~length:(int feat) in
  let a_buf = match_sparse_buffer "A" [ i_ax; j_ax ] in
  let b_buf = buffer "B" [ int n; int feat ] in
  let c_buf = buffer "C" [ int m; int feat ] in
  let body =
    sp_iter ~name:"spmm" ~axes:[ i_ax; j_ax; k_ax ] ~kinds:"SRS"
      ~init:(fun vs ->
        match vs with
        | [ i; _; k ] -> store c_buf [ i; k ] (float 0.0)
        | _ -> assert false)
      (fun vs ->
        match vs with
        | [ i; j; k ] ->
            store c_buf [ i; k ]
              (load c_buf [ i; k ] +: (load a_buf [ i; j ] *: load b_buf [ j; k ]))
        | _ -> assert false)
  in
  func "spmm" [ a_buf; b_buf; c_buf ] body

let base_bindings (a : Csr.t) (x : Dense.t) ~(feat : int) :
    Gpusim.bindings * Tensor.t =
  let c = Tensor.create Dtype.F32 [ a.Csr.rows; feat ] in
  ( [ ("A", Csr.data_tensor a);
      ("A_indptr", Csr.indptr_tensor a);
      ("A_indices", Csr.indices_tensor a);
      ("B", Dense.to_tensor x);
      ("C", c) ],
    c )

(* ------------------------------------------------------------------ *)
(* Scheduling strategies                                               *)
(* ------------------------------------------------------------------ *)

(* Feature-dimension mapping: k -> [k.o serial][k.i = threadIdx.x (tx)]
   [vectorized width vec].  Requires feat mod (tx * vec) = 0. *)
let map_feature sched ~(tx : int) ~(vec : int) : unit =
  if vec > 1 then begin
    let _, _ = Schedule.split sched ~loop:"k" ~factor:vec in
    Schedule.vectorize sched ~loop:"k.i";
    let _, _ = Schedule.split sched ~loop:"k.o" ~factor:tx in
    Schedule.bind sched ~loop:"k.o.i" Ir.Thread_x
  end
  else begin
    let _, _ = Schedule.split sched ~loop:"k" ~factor:tx in
    Schedule.bind sched ~loop:"k.i" Ir.Thread_x
  end

let feature_loops ~(vec : int) =
  if vec > 1 then [ "k.o.o"; "k.o.i" ] else [ "k.o"; "k.i" ]

(* TACO-style single-shot CSR kernel (with the S4.2.1 limitations): rows
   grouped over warps with features across lanes — the coalesced layout the
   TACO GPU autoscheduler reaches — but no register caching of the partial
   result (C is read-modified-written in global memory every reduction step)
   and no unrolling, because the provenance-graph IR cannot express them. *)
let taco (a : Csr.t) (x : Dense.t) ~(feat : int) : compiled =
  let tx = min 32 feat in
  let bindings, out = base_bindings a x ~feat in
  let fn =
    Pipeline.compile ~name:"taco_spmm" ~trace:(Printf.sprintf "taco(tx=%d)" tx)
      (fun fn ->
        let sched = Schedule.create fn in
        map_feature sched ~tx ~vec:1;
        let _ = Schedule.split sched ~loop:"i" ~factor:8 in
        Schedule.reorder sched ~loops:[ "i.i"; "k.o"; "k.i"; "j" ];
        (* no cache_write: the accumulation target stays in global memory *)
        Schedule.bind sched ~loop:"i.o" Ir.Block_x;
        Schedule.bind sched ~loop:"i.i" Ir.Thread_y;
        Schedule.get sched)
      (stage1 a ~feat)
  in
  { fn; bindings; out }

(* cuSPARSE-style CSRMM: one row per block, features across threads,
   register accumulation. *)
let cusparse (a : Csr.t) (x : Dense.t) ~(feat : int) : compiled =
  let tx = min 32 feat in
  let bindings, out = base_bindings a x ~feat in
  let fn =
    Pipeline.compile ~name:"cusparse_spmm"
      ~trace:(Printf.sprintf "cusparse(tx=%d)" tx)
      (fun fn ->
        let sched = Schedule.create fn in
        map_feature sched ~tx ~vec:1;
        Schedule.reorder sched ~loops:[ "k.o"; "k.i"; "j" ];
        ignore (Schedule.cache_write sched ~block:"spmm" ());
        Schedule.bind sched ~loop:"i" Ir.Block_x;
        Schedule.get sched)
      (stage1 a ~feat)
  in
  { fn; bindings; out }

(* GE-SpMM (dgSPARSE): row groups per block + coalesced feature access +
   register accumulation. *)
let dgsparse ?(row_group = 8) (a : Csr.t) (x : Dense.t) ~(feat : int) :
    compiled =
  let tx = min 32 feat in
  let bindings, out = base_bindings a x ~feat in
  let fn =
    Pipeline.compile ~name:"dgsparse_spmm"
      ~trace:(Printf.sprintf "dgsparse(tx=%d,row_group=%d)" tx row_group)
      (fun fn ->
        let sched = Schedule.create fn in
        map_feature sched ~tx ~vec:1;
        let _ = Schedule.split sched ~loop:"i" ~factor:row_group in
        Schedule.reorder sched ~loops:[ "i.i"; "k.o"; "k.i"; "j" ];
        ignore (Schedule.cache_write sched ~block:"spmm" ());
        (* GE-SpMM unrolls the non-zero loop after staging indices *)
        Schedule.unroll sched ~loop:"j";
        Schedule.bind sched ~loop:"i.o" Ir.Block_x;
        Schedule.bind sched ~loop:"i.i" Ir.Thread_y;
        Schedule.get sched)
      (stage1 a ~feat)
  in
  { fn; bindings; out }

(* Sputnik: subwarp tiling with vectorized (float4) feature loads. *)
let sputnik ?(row_group = 4) (a : Csr.t) (x : Dense.t) ~(feat : int) : compiled
    =
  let vec = if feat mod 4 = 0 then 4 else 1 in
  let bindings, out = base_bindings a x ~feat in
  let fn =
    Pipeline.compile ~name:"sputnik_spmm"
      ~trace:(Printf.sprintf "sputnik(vec=%d,row_group=%d)" vec row_group)
      (fun fn ->
        let sched = Schedule.create fn in
        (* k -> [k.o = tx][k.i vectorized] *)
        let _, _ = Schedule.split sched ~loop:"k" ~factor:vec in
        if vec > 1 then Schedule.vectorize sched ~loop:"k.i";
        Schedule.bind sched ~loop:"k.o" Ir.Thread_x;
        let _ = Schedule.split sched ~loop:"i" ~factor:row_group in
        Schedule.reorder sched ~loops:[ "i.i"; "k.o"; "j" ];
        ignore (Schedule.cache_write sched ~block:"spmm" ());
        Schedule.bind sched ~loop:"i.o" Ir.Block_x;
        Schedule.bind sched ~loop:"i.i" Ir.Thread_y;
        Schedule.get sched)
      (stage1 a ~feat)
  in
  { fn; bindings; out }

(* SparseTIR without format decomposition: the best CSR schedule in the
   tuning space (GE-SpMM-style grouping + unrolled reduction + optional
   vectorization). *)
let sparsetir_no_hyb ?(row_group = 8) ?(vec = 1) (a : Csr.t) (x : Dense.t)
    ~(feat : int) : compiled =
  let vec = if feat mod (32 * vec) = 0 then vec else 1 in
  let tx = min 32 (feat / vec) in
  let bindings, out = base_bindings a x ~feat in
  let fn =
    Pipeline.compile ~name:"sparsetir_no_hyb_spmm"
      ~trace:
        (Printf.sprintf "no_hyb(tx=%d,vec=%d,row_group=%d)" tx vec row_group)
      (fun fn ->
        let sched = Schedule.create fn in
        map_feature sched ~tx ~vec;
        let _ = Schedule.split sched ~loop:"i" ~factor:row_group in
        Schedule.reorder sched ~loops:(("i.i" :: feature_loops ~vec) @ [ "j" ]);
        ignore (Schedule.cache_write sched ~block:"spmm" ());
        Schedule.unroll sched ~loop:"j";
        Schedule.bind sched ~loop:"i.o" Ir.Block_x;
        Schedule.bind sched ~loop:"i.i" Ir.Thread_y;
        Schedule.get sched)
      (stage1 a ~feat)
  in
  { fn; bindings; out }

(* ------------------------------------------------------------------ *)
(* Composable-format hyb(c, k) kernel (Figures 5 and 11)               *)
(* ------------------------------------------------------------------ *)

(* One FormatRewriteRule per bucket: a row-mapped ELL sub-matrix.  The
   inverse index map gathers the original row id from the bucket's row map,
   exercising the paper's integer-loaded index expressions. *)
let bucket_rule ?tensors (idx : int) (b : Hyb.bucket) :
    Sparse_ir.Format_rewrite.rule * (string * Tensor.t) list =
  let open Builder in
  let e = b.Hyb.bk_ell in
  let tag = Printf.sprintf "p%d_w%d_%d" b.Hyb.bk_part b.Hyb.bk_width idx in
  let row_map_buf = buffer ~dtype:Dtype.I32 ("rowmap_" ^ tag) [ int e.Ell.rows ] in
  let indices_buf =
    buffer ~dtype:Dtype.I32 ("ellidx_" ^ tag) [ int (e.Ell.rows * e.Ell.width) ]
  in
  let i2 = dense_fixed ("I_" ^ tag) ~length:(int e.Ell.rows) in
  let j2 =
    sparse_fixed ("J_" ^ tag) ~parent:i2 ~length:(int e.Ell.cols)
      ~nnz_cols:(int e.Ell.width) ~indices:indices_buf
  in
  let rule =
    Sparse_ir.Format_rewrite.
      { fr_name = tag;
        fr_buffer = "A";
        fr_new_axes = [ i2; j2 ];
        fr_fwd = (fun coords -> coords);
        fr_inv =
          (fun coords ->
            match coords with
            | [ i2c; j2c ] -> [ load row_map_buf [ i2c ]; j2c ]
            | _ -> invalid_arg "bucket_rule: arity") }
  in
  (* [tensors] overrides the default copying accessors with tensors that
     share the format's arrays — the live-delta path, where the same
     tensors stay bound across in-place patches *)
  let binds =
    match tensors with
    | Some (rm_t, idx_t, val_t) ->
        [ ("rowmap_" ^ tag, rm_t);
          ("ellidx_" ^ tag, idx_t);
          ("A_" ^ tag, val_t) ]
    | None ->
        [ ("rowmap_" ^ tag, Ell.row_map_tensor e);
          ("ellidx_" ^ tag, Ell.indices_tensor e);
          ("A_" ^ tag, Ell.data_tensor e) ]
  in
  (rule, binds)

(* Cache-key fragment for a hyb decomposition: the bucket shapes (partition,
   width, rows) are baked into the rewritten func, so they must appear in
   the pass trace. *)
let hyb_trace ~c ~k (h : Hyb.t) : string =
  Printf.sprintf "hyb(c=%d,k=%d,buckets=[%s])" c k
    (String.concat ";"
       (List.map
          (fun (b : Hyb.bucket) ->
            Printf.sprintf "p%d:w%d:r%d" b.Hyb.bk_part b.Hyb.bk_width
              b.Hyb.bk_ell.Ell.rows)
          h.Hyb.buckets))

(* The hyb(c, k) SpMM body shared by the cold and live entry points:
   decompose the CSR iteration into per-bucket ELL iterations, then
   schedule each bucket so a thread block processes 2^k non-zeros
   (2^{k-i} rows of bucket width 2^i).  [rebind] post-processes the base
   bindings (the live path swaps in its shared-array tensors). *)
let hyb_compiled ~(c : int) ~(k : int) (h : Hyb.t)
    (rules_binds :
      (Sparse_ir.Format_rewrite.rule * (string * Tensor.t) list) list)
    (a : Csr.t) (x : Dense.t) ~(feat : int)
    ~(rebind : Gpusim.bindings -> Gpusim.bindings) : compiled =
  let rules = List.map fst rules_binds in
  let extra_binds = List.concat_map snd rules_binds in
  let decompose =
    Pipeline.Pass.coord ~name:"decompose_format" ~trace:(hyb_trace ~c ~k h)
      (fun fn ->
        let fn, _bufs = Sparse_ir.decompose_format fn ~iter:"spmm" rules in
        fn)
  in
  let schedule fn =
    let sched = Schedule.create fn in
    (* init kernel: parallelize over rows and features *)
    let _ = Schedule.split sched ~loop:"i" ~factor:(min 8 a.Csr.rows) in
    Schedule.bind sched ~loop:"i.o" Ir.Block_x;
    Schedule.bind sched ~loop:"i.i" Ir.Thread_y;
    let tx0 = min 32 feat in
    let _ = Schedule.split sched ~loop:"k" ~factor:tx0 in
    Schedule.bind sched ~loop:"k.i" Ir.Thread_x;
    (* per-bucket schedules *)
    List.iter2
      (fun (rule : Sparse_ir.Format_rewrite.rule) (b : Hyb.bucket) ->
        let tag = rule.Sparse_ir.Format_rewrite.fr_name in
        let li = "i_" ^ tag and lj = "j_" ^ tag in
        let width = b.Hyb.bk_width in
        let rows_per_block = max 1 ((1 lsl k) / width) in
        let lk = "k_" ^ tag in
        let tx = min 32 feat in
        let _ = Schedule.split sched ~loop:lk ~factor:tx in
        Schedule.bind sched ~loop:(lk ^ ".i") Ir.Thread_x;
        let _ = Schedule.split sched ~loop:li ~factor:rows_per_block in
        Schedule.reorder sched
          ~loops:[ li ^ ".i"; lk ^ ".o"; lk ^ ".i"; lj ];
        ignore (Schedule.cache_write sched ~block:("spmm_" ^ tag) ());
        Schedule.unroll sched ~loop:lj;
        Schedule.bind sched ~loop:(li ^ ".o") Ir.Block_x;
        Schedule.bind sched ~loop:(li ^ ".i") Ir.Thread_y)
      rules h.Hyb.buckets;
    Schedule.get sched
  in
  let bindings, out = base_bindings a x ~feat in
  (* the original A data buffer is gone after decomposition *)
  let bindings = List.filter (fun (n, _) -> n <> "A") bindings in
  let bindings = rebind bindings @ extra_binds in
  let fn =
    Pipeline.compile ~coord:[ decompose ] ~name:"hyb_spmm"
      ~trace:(Printf.sprintf "hyb_sched(feat=%d,k=%d)" feat k)
      schedule (stage1 a ~feat)
  in
  { fn; bindings; out }

let sparsetir_hyb ?(c = 1) ?k (a : Csr.t) (x : Dense.t) ~(feat : int) :
    compiled * Hyb.t =
  let k = match k with Some k -> k | None -> Hyb.default_k a in
  let h = Hyb.of_csr ~c ~k a in
  let rules_binds = List.mapi (fun i b -> bucket_rule i b) h.Hyb.buckets in
  (hyb_compiled ~c ~k h rules_binds a x ~feat ~rebind:Fun.id, h)

(* Live-delta hyb SpMM: binds the live format's shared-array tensors, so
   in-place patches are visible to the compiled artifact without
   re-deriving anything.  After a delta that rebuilt buckets
   ([di_shape_changed] or a [Hyb.live_generation] bump), call this again:
   unchanged bucket shapes hit the compile cache (the trace keys on them)
   and only the bindings are re-derived. *)
let sparsetir_hyb_live (lv : Hyb.live) (x : Dense.t) ~(feat : int) :
    compiled =
  let h = Hyb.live_hyb lv in
  let c = h.Hyb.parts in
  let k =
    let rec lg w = if w <= 1 then 0 else 1 + lg (w / 2) in
    lg h.Hyb.max_width
  in
  let a = Csr.live_csr (Hyb.live_source lv) in
  let rules_binds =
    List.mapi
      (fun i (b, rm_t, idx_t, val_t) ->
        bucket_rule ~tensors:(rm_t, idx_t, val_t) i b)
      (Hyb.live_buckets lv)
  in
  hyb_compiled ~c ~k h rules_binds a x ~feat
    ~rebind:(Csr.live_bindings (Hyb.live_source lv))

(* Live-delta CSR SpMM on the single-format SparseTIR schedule: the
   indptr/indices/data bindings share the live arrays, and the artifact
   itself survives every delta (rows/cols/feat are baked; nnz is
   data-dependent through indptr loads).  Re-derive bindings only after a
   capacity growth ([Csr.live_generation] bump). *)
let sparsetir_csr_live ?(row_group = 8) ?(vec = 1) (lv : Csr.live)
    (x : Dense.t) ~(feat : int) : compiled =
  let a = Csr.live_csr lv in
  let compiled = sparsetir_no_hyb ~row_group ~vec a x ~feat in
  { compiled with bindings = Csr.live_bindings lv compiled.bindings }

(* Accumulating SpMM (no output init): C += A * B with B supplied as an
   existing tensor.  Used by the two-stage RGMS pipelines, where each
   relation's scatter accumulates into the shared output. *)
let accumulate_into ?(row_group = 8) (a : Csr.t) ~(b_tensor : Tensor.t)
    ~(c_tensor : Tensor.t) ~(feat : int) ~(tag : string) :
    Ir.func * Gpusim.bindings =
  let open Builder in
  let m = a.Csr.rows and n = a.Csr.cols and nz = max 1 (Csr.nnz a) in
  let indptr_buf =
    buffer ~dtype:Dtype.I32 ("Ai_" ^ tag) [ int (m + 1) ]
  in
  let indices_buf = buffer ~dtype:Dtype.I32 ("Ax_" ^ tag) [ int nz ] in
  let i_ax = dense_fixed ("I_" ^ tag) ~length:(int m) in
  let j_ax =
    sparse_variable ("J_" ^ tag) ~parent:i_ax ~length:(int n) ~nnz:(int nz)
      ~indptr:indptr_buf ~indices:indices_buf
  in
  let k_ax = dense_fixed ("K_" ^ tag) ~length:(int feat) in
  let a_buf = match_sparse_buffer ("A_" ^ tag) [ i_ax; j_ax ] in
  let b_buf = buffer ("B_" ^ tag) [ int n; int feat ] in
  let c_buf = buffer "C" [ int m; int feat ] in
  let body =
    sp_iter ~name:("spmm_" ^ tag) ~axes:[ i_ax; j_ax; k_ax ] ~kinds:"SRS"
      (fun vs ->
        match vs with
        | [ i; j; k ] ->
            store c_buf [ i; k ]
              (load c_buf [ i; k ] +: (load a_buf [ i; j ] *: load b_buf [ j; k ]))
        | _ -> assert false)
  in
  let tx = min 32 feat in
  let fn =
    Pipeline.compile ~name:"accumulate_spmm"
      ~trace:(Printf.sprintf "accumulate(tx=%d,row_group=%d)" tx row_group)
      (fun fn ->
        let sched = Schedule.create fn in
        let li = "i_" ^ tag and lj = "j_" ^ tag and lk = "k_" ^ tag in
        let _ = Schedule.split sched ~loop:lk ~factor:tx in
        let _ = Schedule.split sched ~loop:li ~factor:row_group in
        Schedule.reorder sched ~loops:[ li ^ ".i"; lk ^ ".o"; lk ^ ".i"; lj ];
        ignore (Schedule.cache_write sched ~block:("spmm_" ^ tag) ());
        Schedule.bind sched ~loop:(li ^ ".o") Ir.Block_x;
        Schedule.bind sched ~loop:(li ^ ".i") Ir.Thread_y;
        Schedule.bind sched ~loop:(lk ^ ".i") Ir.Thread_x;
        Schedule.get sched)
      (func ("spmm_" ^ tag) [ a_buf; b_buf; c_buf ] body)
  in
  let bindings =
    [ ("A_" ^ tag, Csr.data_tensor a);
      ("Ai_" ^ tag, Csr.indptr_tensor a);
      ("Ax_" ^ tag, Csr.indices_tensor a);
      ("B_" ^ tag, b_tensor);
      ("C", c_tensor) ]
  in
  (fn, bindings)

(* ------------------------------------------------------------------ *)
(* Descriptor-emitted kernels (DESIGN.md S3g)                          *)
(* ------------------------------------------------------------------ *)

(* SELL SpMM: the stage-I axis chain and its aux bindings come straight
   out of the format descriptor (Descriptor.emit_axes), so the kernel
   never names the format's arrays itself.  Padded slots carry column 0
   with value 0.0, which keeps the unguarded reduction exact.  The
   schedule is the GE-SpMM shape: the per-slice width bound means the
   unrolled reduction loop is short and uniform within a slice. *)
let sell ?(slice = 32) ?(row_group = 8) (a : Csr.t) (x : Dense.t)
    ~(feat : int) : compiled * Sell.t =
  let s = Sell.of_csr ~slice a in
  let open Builder in
  let axes, aux_binds =
    Descriptor.emit_axes s.Sell.storage ~names:[ "I"; "J" ] ~buf_prefix:"A"
  in
  let i_ax, j_ax = match axes with [ i; j ] -> (i, j) | _ -> assert false in
  (* the emitted chain must carry exactly the aux buffers the lowering
     passes read back through Offsets.indptr_exn/indices_exn *)
  assert (
    List.length (Sparse_ir.Offsets.aux_buffers j_ax) = List.length aux_binds);
  let k_ax = dense_fixed "K" ~length:(int feat) in
  let a_buf = match_sparse_buffer "A" [ i_ax; j_ax ] in
  let b_buf = buffer "B" [ int s.Sell.cols; int feat ] in
  let c_buf = buffer "C" [ int s.Sell.rows; int feat ] in
  let body =
    sp_iter ~name:"spmm" ~axes:[ i_ax; j_ax; k_ax ] ~kinds:"SRS"
      ~init:(fun vs ->
        match vs with
        | [ i; _; k ] -> store c_buf [ i; k ] (float 0.0)
        | _ -> assert false)
      (fun vs ->
        match vs with
        | [ i; j; k ] ->
            store c_buf [ i; k ]
              (load c_buf [ i; k ] +: (load a_buf [ i; j ] *: load b_buf [ j; k ]))
        | _ -> assert false)
  in
  let tx = min 32 feat in
  let fn =
    Pipeline.compile ~name:"sell_spmm"
      ~trace:(Printf.sprintf "sell(tx=%d,row_group=%d)" tx row_group)
      (fun fn ->
        let sched = Schedule.create fn in
        map_feature sched ~tx ~vec:1;
        let _ = Schedule.split sched ~loop:"i" ~factor:row_group in
        Schedule.reorder sched ~loops:[ "i.i"; "k.o"; "k.i"; "j" ];
        ignore (Schedule.cache_write sched ~block:"spmm" ());
        Schedule.unroll sched ~loop:"j";
        Schedule.bind sched ~loop:"i.o" Ir.Block_x;
        Schedule.bind sched ~loop:"i.i" Ir.Thread_y;
        Schedule.get sched)
      (func "spmm" [ a_buf; b_buf; c_buf ] body)
  in
  let c = Tensor.create Dtype.F32 [ s.Sell.rows; feat ] in
  let bindings =
    (("A", Sell.data_tensor s) :: aux_binds)
    @ [ ("B", Dense.to_tensor x); ("C", c) ]
  in
  ({ fn; bindings; out = c }, s)

(* Banded SpMM: the diagonal axis is a dense range (every offset in
   [-band, band] is materialized), so the only data-dependence left is
   the bounds guard on j = i + offset[s].  Values are diagonal-major
   (n_diags x rows), giving unit-stride loads along i. *)
let banded ?(band = 8) (a : Csr.t) (x : Dense.t) ~(feat : int) :
    compiled * Banded.t =
  let bd = Banded.of_csr ~band a in
  let open Builder in
  let m = bd.Banded.rows and n = bd.Banded.cols in
  let nd = Banded.n_diags bd in
  let off_buf = buffer ~dtype:Dtype.I32 "A_offsets" [ int nd ] in
  let a_buf = buffer "A" [ int nd; int m ] in
  let b_buf = buffer "B" [ int n; int feat ] in
  let c_buf = buffer "C" [ int m; int feat ] in
  let i_ax = dense_fixed "I" ~length:(int m) in
  let s_ax = dense_fixed "S" ~length:(int nd) in
  let k_ax = dense_fixed "K" ~length:(int feat) in
  let body =
    sp_iter ~name:"spmm" ~axes:[ i_ax; s_ax; k_ax ] ~kinds:"SRS"
      ~init:(fun vs ->
        match vs with
        | [ i; _; k ] -> store c_buf [ i; k ] (float 0.0)
        | _ -> assert false)
      (fun vs ->
        match vs with
        | [ i; s; k ] ->
            (* the shifted column, inlined (block read regions don't scope
               let-bound names) *)
            let j = i +: load off_buf [ s ] in
            if_
              ((j >=: int 0) &&: (j <: int n))
              (store c_buf [ i; k ]
                 (load c_buf [ i; k ]
                 +: (load a_buf [ s; i ] *: load b_buf [ j; k ])))
        | _ -> assert false)
  in
  let tx = min 32 feat in
  let fn =
    Pipeline.compile ~name:"banded_spmm"
      ~trace:(Printf.sprintf "banded(tx=%d,band=%d)" tx band)
      (fun fn ->
        let sched = Schedule.create fn in
        map_feature sched ~tx ~vec:1;
        Schedule.reorder sched ~loops:[ "k.o"; "k.i"; "s" ];
        Schedule.bind sched ~loop:"i" Ir.Block_x;
        Schedule.get sched)
      (func "spmm" [ a_buf; b_buf; c_buf ] body)
  in
  let c = Tensor.create Dtype.F32 [ m; feat ] in
  let bindings =
    [ ("A", Banded.data_tensor bd);
      ("A_offsets", Banded.offsets_tensor bd);
      ("B", Dense.to_tensor x);
      ("C", c) ]
  in
  ({ fn; bindings; out = c }, bd)
