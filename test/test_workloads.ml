(* Workload generator tests: the synthetic stand-ins must actually have the
   statistical properties the figures probe (degree skew, relation skew,
   band/butterfly structure, ELL(1) convolution maps, pruning densities) and
   must be deterministic. *)

open Formats

let test_determinism () =
  let a = Workloads.Graphs.by_name "cora" in
  let b = Workloads.Graphs.by_name "cora" in
  Alcotest.(check int) "same nnz" (Csr.nnz a) (Csr.nnz b);
  Alcotest.(check bool) "same structure" true
    (Dense.max_abs_diff (Csr.to_dense a) (Csr.to_dense b) = 0.0)

(* The generators must keep producing the exact graphs every pinned figure
   and benchmark was measured on: indptr/indices fingerprints of a seeded
   power-law graph small enough to exhaust weighted sampling (its top-up
   path runs), cora, and the reddit stand-in. *)
let fingerprint (a : Csr.t) : int =
  let h = ref 0 in
  let mix x = h := (!h * 1_000_003) lxor x in
  Array.iter mix a.Csr.indptr;
  Array.iter mix a.Csr.indices;
  !h

let test_pinned_fingerprints () =
  let small =
    Workloads.Graphs.generate ~seed:3
      { Workloads.Graphs.g_name = "fingerprint"; g_nodes = 300;
        g_edges = 6000; g_shape = Workloads.Graphs.Power_law 1.5 }
  in
  List.iter
    (fun (name, a, nnz, fp) ->
      Alcotest.(check int) (name ^ " nnz") nnz (Csr.nnz a);
      Alcotest.(check int) (name ^ " fingerprint") fp (fingerprint a))
    [ ("power-law 1.5", small, 5654, 2669010221219971584);
      ("cora", Workloads.Graphs.by_name "cora", 10465, -4504123975782827361);
      ( "reddit", Workloads.Graphs.by_name "reddit", 1279669,
        -2463046067829737283 ) ]

let test_edge_counts_close () =
  List.iter
    (fun (s : Workloads.Graphs.spec) ->
      let a = Workloads.Graphs.generate s in
      let ratio =
        float_of_int (Csr.nnz a) /. float_of_int s.Workloads.Graphs.g_edges
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s edges within 25%% (got %.2f)"
           s.Workloads.Graphs.g_name ratio)
        true
        (ratio > 0.75 && ratio < 1.25))
    Workloads.Graphs.table1

let test_degree_shapes () =
  (* power-law graphs must have a much larger max/mean degree ratio than
     centralized ones *)
  let skew = Workloads.Graphs.by_name "reddit" in
  let flat = Workloads.Graphs.by_name "ogbn-proteins" in
  let _, mx_s, mean_s = Csr.degree_stats skew in
  let _, mx_f, mean_f = Csr.degree_stats flat in
  let skew_ratio = float_of_int mx_s /. mean_s in
  let flat_ratio = float_of_int mx_f /. mean_f in
  Alcotest.(check bool)
    (Printf.sprintf "power-law skew %.1f >> centralized %.1f" skew_ratio
       flat_ratio)
    true
    (skew_ratio > 4.0 *. flat_ratio)

let test_hetero_zipf () =
  let h = Workloads.Hetero.by_name "AIFB" in
  let sizes =
    Array.map Csr.nnz h.Workloads.Hetero.relations |> Array.to_list
    |> List.sort (fun a b -> compare b a)
  in
  (* the largest relation holds many times the median's edges *)
  let largest = List.hd sizes in
  let median = List.nth sizes (List.length sizes / 2) in
  Alcotest.(check bool)
    (Printf.sprintf "relation skew (%d vs %d)" largest median)
    true
    (largest > 4 * median)

let test_band_structure () =
  let b = Workloads.Attention.band ~size:64 ~band:16 () in
  let ok = ref true in
  for i = 0 to 63 do
    for p = b.Csr.indptr.(i) to b.Csr.indptr.(i + 1) - 1 do
      if abs (b.Csr.indices.(p) - i) > 8 then ok := false
    done
  done;
  Alcotest.(check bool) "within band" true !ok;
  Alcotest.(check bool) "diag present" true (Csr.nnz b >= 64)

let test_butterfly_support () =
  let b = Workloads.Attention.butterfly ~size:64 ~block:8 () in
  let is_pow2 x = x > 0 && x land (x - 1) = 0 in
  let ok = ref true in
  for i = 0 to 63 do
    for p = b.Csr.indptr.(i) to b.Csr.indptr.(i + 1) - 1 do
      let bi = i / 8 and bj = b.Csr.indices.(p) / 8 in
      if not (bi = bj || is_pow2 (bi lxor bj)) then ok := false
    done
  done;
  Alcotest.(check bool) "butterfly support" true !ok

let test_pointcloud_ell1 () =
  let cloud = Workloads.Pointcloud.generate ~grid:16 ~target_points:200 () in
  let rels = Workloads.Pointcloud.conv_relations cloud in
  Alcotest.(check int) "27 offsets" 27 (Array.length rels);
  (* at most one non-zero per row in every relation (ELL(1), footnote 12) *)
  Array.iter
    (fun (r : Csr.t) ->
      for i = 0 to r.Csr.rows - 1 do
        Alcotest.(check bool) "ELL(1)" true (Csr.row_len r i <= 1)
      done)
    rels;
  (* the identity offset maps every voxel to itself *)
  let center = rels.(13) in
  Alcotest.(check int) "identity offset is full"
    (Workloads.Pointcloud.n_points cloud)
    (Csr.nnz center)

let test_pruning_densities () =
  let rows = 256 and cols = 256 in
  List.iter
    (fun d ->
      let w = Workloads.Pruning.block_pruned ~rows ~cols ~block:32 ~density:d () in
      let bsr = Bsr.of_csr ~block:32 w in
      let got =
        float_of_int (Bsr.nnzb bsr) /. float_of_int (rows / 32 * (cols / 32))
      in
      Alcotest.(check bool)
        (Printf.sprintf "block density %.3f ~ %.3f" d got)
        true
        (Float.abs (got -. d) < 0.15))
    [ 0.25; 0.5 ];
  let w = Workloads.Pruning.movement_pruned ~rows ~cols ~density:0.1 () in
  let got = Csr.density w in
  Alcotest.(check bool) (Printf.sprintf "element density 0.1 ~ %.3f" got) true
    (Float.abs (got -. 0.1) < 0.05)

let test_block_pruned_has_empty_rows () =
  let w =
    Workloads.Pruning.block_pruned ~rows:512 ~cols:512 ~block:32 ~density:0.1 ()
  in
  let d = Dbsr.of_csr ~block:32 w in
  Alcotest.(check bool) "zero block rows exist" true
    (d.Dbsr.nrows_b < d.Dbsr.base.Bsr.rows_b)

let () =
  Alcotest.run "workloads"
    [ ( "graphs",
        [ Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "pinned fingerprints" `Quick
            test_pinned_fingerprints;
          Alcotest.test_case "edge counts" `Quick test_edge_counts_close;
          Alcotest.test_case "degree shapes" `Quick test_degree_shapes ] );
      ("hetero", [ Alcotest.test_case "relation skew" `Quick test_hetero_zipf ]);
      ( "attention",
        [ Alcotest.test_case "band" `Quick test_band_structure;
          Alcotest.test_case "butterfly" `Quick test_butterfly_support ] );
      ( "pointcloud",
        [ Alcotest.test_case "ELL(1) relations" `Quick test_pointcloud_ell1 ] );
      ( "pruning",
        [ Alcotest.test_case "densities" `Quick test_pruning_densities;
          Alcotest.test_case "empty block rows" `Quick
            test_block_pruned_has_empty_rows ] ) ]
