(* Compile cache: memoizes [Pipeline.run] results.

   The key is the printed Stage I func concatenated with the pipeline's
   schedule trace.  [Tir.Printer] output is purely name-based — internal
   variable and buffer ids never appear — so structurally identical funcs
   built by separate [Builder] invocations (fresh id counters) print
   identically, which is exactly the structural-hash behaviour the tuner
   needs when it rebuilds the same candidate.  Pass traces must encode every
   parameter a transform closes over; see [Pass.t].

   Each entry holds the lowered IR only.  Its codegen artifact lives in
   [Engine]'s identity-keyed memo, the one store of artifacts: a warm hit
   returns the same func value, so executing it finds the artifact there,
   and after [Engine.reset] the first execution compiles it again.

   The cache is bounded: entries carry a last-use generation stamp and
   insertion beyond [capacity] evicts the least-recently-used entry,
   unregistering its Engine artifact in the same step so the memo cannot
   outgrow the cache — a long tuner search over a huge schedule space holds
   at most [capacity] lowered funcs and artifacts.  [clear] unregisters
   every entry's artifact the same way.  Eviction is a linear min-scan;
   capacities are small (hundreds) and insertions already paid a full
   lowering, so simplicity beats an intrusive list. *)

open Tir

type entry = {
  e_ir : Ir.func;
  mutable e_last : int; (* generation of last find/add touch *)
}

type t = {
  table : (string, entry) Hashtbl.t;
  mutable capacity : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_capacity = 256

let create ?(capacity = default_capacity) () =
  {
    table = Hashtbl.create 64;
    capacity = max 1 capacity;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let key (fn : Ir.func) ~(trace : string) : string =
  Printer.func_to_string fn ^ "\n#schedule-trace: " ^ trace

let tick (t : t) : int =
  t.clock <- t.clock + 1;
  t.clock

let find (t : t) (k : string) : entry option =
  match Hashtbl.find_opt t.table k with
  | Some e ->
      t.hits <- t.hits + 1;
      e.e_last <- tick t;
      Some e
  | None ->
      t.misses <- t.misses + 1;
      None

let evict_lru (t : t) : unit =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best.e_last <= e.e_last -> acc
        | _ -> Some (k, e))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (k, e) ->
      Hashtbl.remove t.table k;
      Engine.unregister e.e_ir;
      t.evictions <- t.evictions + 1

let add (t : t) (k : string) (fn : Ir.func) : entry =
  let e = { e_ir = fn; e_last = tick t } in
  Hashtbl.replace t.table k e;
  while Hashtbl.length t.table > t.capacity do
    evict_lru t
  done;
  e

let capacity (t : t) = t.capacity

let set_capacity (t : t) (c : int) =
  t.capacity <- max 1 c;
  while Hashtbl.length t.table > t.capacity do
    evict_lru t
  done

let hits (t : t) = t.hits
let misses (t : t) = t.misses
let evictions (t : t) = t.evictions
let size (t : t) = Hashtbl.length t.table

let clear (t : t) =
  Hashtbl.iter (fun _ e -> Engine.unregister e.e_ir) t.table;
  Hashtbl.reset t.table;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
