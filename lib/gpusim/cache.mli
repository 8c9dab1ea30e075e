(** Set-associative LRU cache simulator over a flat simulated address space:
    one instance per SM models the L1s, one shared instance the L2.
    Produces the hit rates of Figure 12 and the DRAM-traffic term of the
    kernel cost model. *)

type t = {
  sets : int;
  assoc : int;
  line : int;
  tags : int array;
  stamp : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

val create : bytes:int -> line:int -> assoc:int -> t
val reset : t -> unit

val access_line : t -> int -> bool
(** Access one line by byte address; true on hit. *)

val access_range : t -> addr:int -> bytes:int -> int * int
(** Touch every line of a byte range; (hits, misses). *)

val access_run : t -> base:int -> stride:int -> count:int -> bytes:int -> int * int
(** Strided run of accesses; dense sub-line strides collapse to a sweep. *)
