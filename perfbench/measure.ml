(* Sample statistics, clocks and process-level readings shared by the
   workloads. *)

let now () = Unix.gettimeofday ()

(* Wall time of [f ()] in ms, with its result. *)
let time_ms (f : unit -> 'a) : 'a * float =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.0)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linearly interpolated quantile, [q] in [0, 1]. *)
let quantile (xs : float list) (q : float) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let mean (xs : float list) : float =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum (xs : float list) : float = List.fold_left ( +. ) 0.0 xs

(* Peak OCaml major heap over the process lifetime, in MiB. *)
let peak_heap_mb () : float =
  let st = Gc.quick_stat () in
  float_of_int st.Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(* Max relative error of [got] against [want], relative to the largest
   magnitude in [want] (floored at 1 so all-small outputs compare
   absolutely). *)
let rel_err (want : float array) (got : float array) : float =
  if Array.length want <> Array.length got then Float.infinity
  else begin
    let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1.0 want in
    let e = ref 0.0 in
    Array.iteri
      (fun i w ->
        let d = Float.abs (w -. got.(i)) in
        if Float.is_nan d then e := Float.infinity else e := Float.max !e d)
      want;
    !e /. scale
  end
