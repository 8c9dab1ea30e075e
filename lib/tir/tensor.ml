(* Runtime storage bound to IR buffers.  Row-major, flat.  Float16 buffers
   round every stored value through half precision. *)

type data =
  | F of float array
  | I of int array
  | B of bool array

(* Structural facts about an index tensor; see [Facts]. *)
type fact =
  | Injective (* all elements pairwise distinct *)
  | Monotone_nd (* non-decreasing *)
  | Monotone_inc (* strictly increasing: implies both facts above *)

(* The facts known for one tensor version.  Immutable: [Facts] publishes a
   new record by compare-and-set instead of editing this one. *)
type fact_state = {
  fs_ver : int; (* tensor version the state is valid for *)
  fs_declared : fact list;
  fs_scanned : (fact * bool) list;
}

type t = {
  dtype : Dtype.t;
  shape : int array;
  data : data;
  mutable version : int; (* bumped by every mutating operation *)
  facts : fact_state Atomic.t; (* this tensor's own cell, never shared *)
}

let no_facts = { fs_ver = 0; fs_declared = []; fs_scanned = [] }

(* Every tensor, copies included, is built here so each gets a fresh fact
   cell. *)
let make dtype shape data =
  { dtype; shape; data; version = 0; facts = Atomic.make no_facts }

let numel (t : t) = Array.fold_left ( * ) 1 t.shape

let create (dtype : Dtype.t) (shape : int list) : t =
  let shape = Array.of_list shape in
  let n = Array.fold_left ( * ) 1 shape in
  let data =
    if Dtype.is_float dtype then F (Array.make n 0.0)
    else if dtype = Dtype.Bool then B (Array.make n false)
    else I (Array.make n 0)
  in
  make dtype shape data

let of_float_array ?(dtype = Dtype.F32) (shape : int list) (a : float array) : t
    =
  let t = make dtype (Array.of_list shape) (F a) in
  if numel t <> Array.length a then invalid_arg "Tensor.of_float_array: shape";
  t

let of_int_array ?(dtype = Dtype.I32) (shape : int list) (a : int array) : t =
  let t = make dtype (Array.of_list shape) (I a) in
  if numel t <> Array.length a then invalid_arg "Tensor.of_int_array: shape";
  t

let flat_index (t : t) (idx : int array) : int =
  let n = Array.length t.shape in
  if Array.length idx <> n then
    invalid_arg
      (Printf.sprintf "Tensor.flat_index: rank mismatch (%d vs %d)"
         (Array.length idx) n);
  let off = ref 0 in
  for d = 0 to n - 1 do
    let i = idx.(d) in
    if i < 0 || i >= t.shape.(d) then
      invalid_arg
        (Printf.sprintf "Tensor.flat_index: index %d out of bounds [0,%d) in dim %d"
           i t.shape.(d) d);
    off := (!off * t.shape.(d)) + i
  done;
  !off

let get_f (t : t) (flat : int) : float =
  match t.data with
  | F a -> a.(flat)
  | I a -> float_of_int a.(flat)
  | B a -> if a.(flat) then 1.0 else 0.0

let get_i (t : t) (flat : int) : int =
  match t.data with
  | I a -> a.(flat)
  | F a -> int_of_float a.(flat)
  | B a -> if a.(flat) then 1 else 0

let set_f (t : t) (flat : int) (x : float) : unit =
  t.version <- t.version + 1;
  match t.data with
  | F a -> a.(flat) <- (if t.dtype = Dtype.F16 then Dtype.round_f16 x else x)
  | I a -> a.(flat) <- int_of_float x
  | B a -> a.(flat) <- (x <> 0.0)

let set_i (t : t) (flat : int) (x : int) : unit =
  t.version <- t.version + 1;
  match t.data with
  | I a -> a.(flat) <- x
  | F a -> a.(flat) <- float_of_int x
  | B a -> a.(flat) <- (x <> 0)

let fill_f (t : t) (x : float) : unit =
  t.version <- t.version + 1;
  match t.data with
  | F a -> Array.fill a 0 (Array.length a) x
  | I a -> Array.fill a 0 (Array.length a) (int_of_float x)
  | B a -> Array.fill a 0 (Array.length a) (x <> 0.0)

let to_float_array (t : t) : float array =
  Array.init (numel t) (fun i -> get_f t i)

let to_int_array (t : t) : int array = Array.init (numel t) (fun i -> get_i t i)

(* One version bump covering a whole in-place patch batch: the delta path
   writes the underlying arrays directly (not through [set_f]/[set_i], which
   would bump once per element) and stamps the tensor exactly once, so the
   facts/replica machinery observes one invalidation per batch. *)
let touch (t : t) : unit = t.version <- t.version + 1

(* Copy the flat range [pos, pos+len) of [src] into the same positions of
   [dst].  Both tensors must use the same storage representation (the
   parallel executor blits between a tensor and its [copy]). *)
let blit ~(src : t) ~(dst : t) ~(pos : int) ~(len : int) : unit =
  dst.version <- dst.version + 1;
  match (src.data, dst.data) with
  | F a, F b -> Array.blit a pos b pos len
  | I a, I b -> Array.blit a pos b pos len
  | B a, B b -> Array.blit a pos b pos len
  | _ -> invalid_arg "Tensor.blit: mismatched storage representations"

(* Maximum |a - b| over all elements; both tensors must have equal numel. *)
let max_abs_diff (a : t) (b : t) : float =
  let n = numel a in
  if numel b <> n then invalid_arg "Tensor.max_abs_diff: size mismatch";
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let d = Float.abs (get_f a i -. get_f b i) in
    if d > !worst then worst := d
  done;
  !worst

let bytes (t : t) : int = numel t * Dtype.size_bytes t.dtype

(* ------------------------------------------------------------------ *)
(* Structural facts about index tensors                                *)
(* ------------------------------------------------------------------ *)

(* The write-disjointness analysis (Tir.Analysis / the compiled engine's
   parallel dispatch) needs structural facts about index buffers: a row map
   that is injective scatters to all-distinct rows; an indptr-style buffer
   that is monotone cuts safely at any strict increase.  Facts are either
   [declare]d by format constructors (trusted — e.g. a CSR indptr is
   non-decreasing by construction) or established by an O(n) scan.  Both
   live on the tensor itself, in its [facts] cell, and are valid only for
   the mutation [version] they record, which every write bumps.  Nothing
   else holds them, so nothing can evict them: a fact lasts exactly as long
   as its tensor and its tensor's contents. *)
module Facts = struct
  type nonrec fact = fact =
    | Injective
    | Monotone_nd
    | Monotone_inc

  let scans = Atomic.make 0
  let span_checks = Atomic.make 0
  let scan_count () = Atomic.get scans
  let span_check_count () = Atomic.get span_checks

  (* The state for the tensor's current version; an older one is stale. *)
  let current (t : t) : fact_state =
    let s = Atomic.get t.facts in
    if s.fs_ver = t.version then s else { no_facts with fs_ver = t.version }

  (* Publish [f] of the state for version [ver].  Concurrent driver domains
     may consult the same tensor, so the swap is a compare-and-set retried
     on conflict; a state already recorded for a newer version wins. *)
  let rec update (t : t) ~(ver : int) (f : fact_state -> fact_state) : unit =
    let old = Atomic.get t.facts in
    if old.fs_ver <= ver then begin
      let cur =
        if old.fs_ver = ver then old else { no_facts with fs_ver = ver }
      in
      if not (Atomic.compare_and_set t.facts old (f cur)) then update t ~ver f
    end

  let declare (t : t) (f : fact) : unit =
    update t ~ver:t.version (fun s ->
        if List.mem f s.fs_declared then s
        else { s with fs_declared = f :: s.fs_declared })

  let declared (t : t) : fact list = (current t).fs_declared

  (* [have] certifies [want]: strict monotonicity implies both weaker
     facts. *)
  let implies (have : fact) (want : fact) : bool =
    have = want || (have = Monotone_inc && want <> Monotone_inc)

  let scan (t : t) (f : fact) : bool =
    Atomic.incr scans;
    let n = numel t in
    match f with
    | Monotone_inc ->
        let ok = ref true in
        for i = 1 to n - 1 do
          if get_i t i <= get_i t (i - 1) then ok := false
        done;
        !ok
    | Monotone_nd ->
        let ok = ref true in
        for i = 1 to n - 1 do
          if get_i t i < get_i t (i - 1) then ok := false
        done;
        !ok
    | Injective ->
        let a = Array.init n (get_i t) in
        Array.sort Int.compare a;
        let ok = ref true in
        for i = 1 to n - 1 do
          if a.(i) = a.(i - 1) then ok := false
        done;
        !ok

  let holds (t : t) (f : fact) : bool =
    (match t.data with I _ -> true | _ -> false)
    &&
    let s = current t in
    List.exists (fun d -> implies d f) s.fs_declared
    || List.exists (fun (g, ok) -> ok && implies g f) s.fs_scanned
    ||
    match List.assoc_opt f s.fs_scanned with
    | Some ok -> ok
    | None ->
        let ok = scan t f in
        update t ~ver:s.fs_ver (fun s ->
            if List.mem_assoc f s.fs_scanned then s
            else { s with fs_scanned = (f, ok) :: s.fs_scanned });
        ok

  (* One construction-time pass declaring the strongest ordering fact the
     data supports.  Format constructors that materialize an index array
     they just built (a row map, a block-row id list) call this instead of
     hand-rolling the check; the pass is a declaration, not a memoized scan,
     so it does not count against [scan_count] — dispatch-time scans stay
     observable in tests.  Non-integer tensors are left untouched. *)
  let declare_order (t : t) : unit =
    match t.data with
    | I a ->
        let n = Array.length a in
        let strict = ref true and nondec = ref true in
        for i = 1 to n - 1 do
          if a.(i) <= a.(i - 1) then strict := false;
          if a.(i) < a.(i - 1) then nondec := false
        done;
        if !strict then declare t Monotone_inc
        else if !nondec then declare t Monotone_nd
    | F _ | B _ -> ()

  (* Re-establish [fs] for [t]'s current version after an in-place patch
     confined to flat positions [lo, hi): each ordering fact is verified on
     the touched span plus one boundary pair on each side — O(hi - lo), not
     O(n) — and re-declared on success.  Sound only under the caller's
     contract that the fact held for the pre-patch contents and that no
     position outside [lo, hi) changed.  [Injective] has no local witness
     (a patched value can collide with any untouched one), so it is
     re-established only when implied by a re-verified [Monotone_inc].
     Span verifications are counted separately from [scan_count]
     ([span_check_count]), so tests can assert O(n) dispatch-time rescans
     stayed flat while still observing the O(delta) re-verification
     work. *)
  let redeclare_span (t : t) (fs : fact list) ~(lo : int) ~(hi : int) :
      fact list =
    match t.data with
    | I a ->
        let n = Array.length a in
        (* adjacent pairs (i-1, i) with either index inside [lo, hi) *)
        let first = max 1 lo and last = min (n - 1) hi in
        let pair_ok strict =
          Atomic.incr span_checks;
          let ok = ref true in
          for i = first to last do
            if (if strict then a.(i) <= a.(i - 1) else a.(i) < a.(i - 1))
            then ok := false
          done;
          !ok
        in
        let established =
          List.filter
            (fun f ->
              match f with
              | Monotone_inc -> pair_ok true
              | Monotone_nd -> pair_ok false
              | Injective -> List.mem Monotone_inc fs && pair_ok true)
            fs
        in
        List.iter (declare t) established;
        established
    | F _ | B _ -> []
end

let copy (t : t) : t =
  let data =
    match t.data with
    | F a -> F (Array.copy a)
    | I a -> I (Array.copy a)
    | B a -> B (Array.copy a)
  in
  (* [make], not [{ t with ... }]: the copy's storage diverges from the
     original's, so it must not share the original's fact cell *)
  make t.dtype (Array.copy t.shape) data
