(* Set-associative LRU cache simulator.  Addresses are byte addresses in a
   flat simulated address space; one cache instance serves the L2, and one
   instance per SM serves the L1s.  Used to produce the L1/L2 hit rates of
   Figure 12 and the DRAM traffic term of the kernel cost model. *)

type t = {
  sets : int;
  assoc : int;
  line : int;
  tags : int array;       (* sets * assoc, -1 = invalid *)
  stamp : int array;      (* LRU timestamps *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~bytes ~line ~assoc : t =
  let sets = max 1 (bytes / (line * assoc)) in
  { sets;
    assoc;
    line;
    tags = Array.make (sets * assoc) (-1);
    stamp = Array.make (sets * assoc) 0;
    clock = 0;
    hits = 0;
    misses = 0 }

let reset (c : t) : unit =
  Array.fill c.tags 0 (Array.length c.tags) (-1);
  Array.fill c.stamp 0 (Array.length c.stamp) 0;
  c.clock <- 0;
  c.hits <- 0;
  c.misses <- 0

(* Access one cache line by address; returns true on hit. *)
let access_line (c : t) (addr : int) : bool =
  let line_id = addr / c.line in
  let set = line_id mod c.sets in
  let base = set * c.assoc in
  c.clock <- c.clock + 1;
  let rec find w =
    if w >= c.assoc then None
    else if c.tags.(base + w) = line_id then Some w
    else find (w + 1)
  in
  match find 0 with
  | Some w ->
      c.stamp.(base + w) <- c.clock;
      c.hits <- c.hits + 1;
      true
  | None ->
      c.misses <- c.misses + 1;
      (* evict LRU way *)
      let victim = ref 0 in
      for w = 1 to c.assoc - 1 do
        if c.stamp.(base + w) < c.stamp.(base + !victim) then victim := w
      done;
      c.tags.(base + !victim) <- line_id;
      c.stamp.(base + !victim) <- c.clock;
      false

(* Access [bytes] bytes starting at [addr]; returns the number of missing
   lines (each touched line counts one access). *)
let access_range (c : t) ~(addr : int) ~(bytes : int) : int * int =
  let first = addr / c.line and last = (addr + max 1 bytes - 1) / c.line in
  let h = ref 0 and m = ref 0 in
  for l = first to last do
    if access_line c (l * c.line) then incr h else incr m
  done;
  (!h, !m)

(* Strided run: [count] accesses of [bytes] bytes each, starting at [base]
   with byte stride [stride].  Returns (hits, misses) in touched lines. *)
let access_run (c : t) ~(base : int) ~(stride : int) ~(count : int)
    ~(bytes : int) : int * int =
  let h = ref 0 and m = ref 0 in
  if stride = 0 then begin
    let h', m' = access_range c ~addr:base ~bytes in
    h := h'; m := m'
  end
  else if abs stride <= c.line && bytes <= abs stride then begin
    (* dense sweep: walk line by line over the covered range *)
    let total = (abs stride * (count - 1)) + bytes in
    let start = if stride > 0 then base else base + (stride * (count - 1)) in
    let h', m' = access_range c ~addr:start ~bytes:total in
    h := h'; m := m'
  end
  else
    for i = 0 to count - 1 do
      let h', m' = access_range c ~addr:(base + (i * stride)) ~bytes in
      h := !h + h'; m := !m + m'
    done;
  (!h, !m)
