(* Graph generators standing in for the GNN datasets of Table 1.

   The real datasets cannot ship with this repository, so each named graph is
   generated with the same *degree-distribution shape* at a reduced scale
   (the property Figures 12-15 actually probe: power-law skew rewards the
   hyb format's load balancing, centralized degrees do not).  Scaling is
   uniform across all compared systems, preserving relative behaviour. *)

open Formats

type degree_shape =
  | Power_law of float    (* Pareto tail exponent *)
  | Centralized of float  (* normal around the mean, relative stddev *)

type spec = {
  g_name : string;
  g_nodes : int;
  g_edges : int;          (* target edge count *)
  g_shape : degree_shape;
}

(* Scaled stand-ins for the seven graphs of Table 1 (names kept for
   reporting).  cora/citeseer/pubmed are kept at full size; the larger OGB
   graphs are scaled down so the simulator can sweep every configuration. *)
let table1 : spec list =
  [ { g_name = "cora"; g_nodes = 2708; g_edges = 10556; g_shape = Power_law 2.2 };
    { g_name = "citeseer"; g_nodes = 3327; g_edges = 9228; g_shape = Power_law 2.4 };
    { g_name = "pubmed"; g_nodes = 9858; g_edges = 44325; g_shape = Power_law 2.1 };
    { g_name = "ppi"; g_nodes = 11226; g_edges = 317818; g_shape = Centralized 0.7 };
    { g_name = "ogbn-arxiv"; g_nodes = 16934; g_edges = 116624; g_shape = Power_law 1.8 };
    { g_name = "ogbn-proteins"; g_nodes = 8192; g_edges = 983040; g_shape = Centralized 0.25 };
    { g_name = "reddit"; g_nodes = 16384; g_edges = 1310720; g_shape = Power_law 1.5 } ]

let find_spec (name : string) : spec =
  match List.find_opt (fun s -> String.equal s.g_name name) table1 with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Graphs.find_spec: unknown graph %s" name)

(* Draw a degree sequence with the requested shape, rescaled to hit the
   target edge count. *)
let degree_sequence (g : Rng.t) (s : spec) : int array =
  let raw =
    Array.init s.g_nodes (fun _ ->
        match s.g_shape with
        | Power_law alpha -> Rng.pareto g ~alpha ~xmin:1.0
        | Centralized rel ->
            let mean = float_of_int s.g_edges /. float_of_int s.g_nodes in
            Float.max 1.0 (mean *. (1.0 +. (rel *. Rng.normal g))))
  in
  let total = Array.fold_left ( +. ) 0.0 raw in
  let scale = float_of_int s.g_edges /. total in
  Array.map
    (fun d -> max 1 (min (s.g_nodes - 1) (int_of_float (Float.round (d *. scale)))))
    raw

(* Configuration-model adjacency matrix: row i holds deg(i) distinct
   neighbours.  Column targets are drawn with the same skew so hub columns
   exist too (as in citation graphs). *)
let generate ?(seed = 7) (s : spec) : Csr.t =
  let g = Rng.create (seed + Hashtbl.hash s.g_name) in
  let degs = degree_sequence g s in
  (* column popularity: reuse the degree sequence as sampling weights *)
  let n = s.g_nodes in
  let cum = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    cum.(i + 1) <- cum.(i) +. float_of_int degs.(i)
  done;
  let total = cum.(n) in
  let sample_col () =
    (* inverse-CDF sampling over the degree weights *)
    let x = Rng.float g *. total in
    let rec bs lo hi =
      if lo + 1 >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) <= x then bs mid hi else bs lo mid
    in
    bs 0 n
  in
  let indptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    indptr.(i + 1) <- indptr.(i) + degs.(i)
  done;
  let nnz = indptr.(n) in
  let indices = Array.make nnz 0 in
  let data = Array.make nnz 1.0 in
  let module IS = Set.Make (Int) in
  for i = 0 to n - 1 do
    let d = degs.(i) in
    (* [count] tracks the size of [chosen]: [IS.cardinal] is O(d) *)
    let chosen = ref IS.empty and count = ref 0 in
    let add j =
      if not (IS.mem j !chosen) then begin
        chosen := IS.add j !chosen;
        incr count
      end
    in
    let tries = ref 0 in
    while !count < d && !tries < 8 * d do
      incr tries;
      add (sample_col ())
    done;
    (* top up with distinct uniform columns if weighted sampling stalled *)
    while !count < d do
      add (Rng.int g n)
    done;
    List.iteri
      (fun k j -> indices.(indptr.(i) + k) <- j)
      (IS.elements !chosen)
  done;
  { Csr.rows = n; cols = n; indptr; indices; data }

(* Row-normalized adjacency (mean aggregation), used by GraphSAGE. *)
let normalize_rows (a : Csr.t) : Csr.t =
  let data = Array.copy a.Csr.data in
  for i = 0 to a.Csr.rows - 1 do
    let l = Csr.row_len a i in
    if l > 0 then
      for p = a.Csr.indptr.(i) to a.Csr.indptr.(i + 1) - 1 do
        data.(p) <- data.(p) /. float_of_int l
      done
  done;
  { a with Csr.data }

let by_name ?seed (name : string) : Csr.t = generate ?seed (find_spec name)
