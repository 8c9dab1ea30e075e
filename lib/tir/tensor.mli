(** Runtime storage bound to IR buffers: flat row-major arrays of floats,
    ints or booleans.  Float16 buffers round every stored value through half
    precision ({!Dtype.round_f16}). *)

type data =
  | F of float array
  | I of int array
  | B of bool array

type fact_state
(** The facts known for one version of one tensor; read through {!Facts}. *)

type t = {
  dtype : Dtype.t;
  shape : int array;
  data : data;
  mutable version : int;
      (** mutation stamp, bumped by every write ({!set_f}, {!set_i},
          {!fill_f}, {!blit}, {!touch}); {!Facts} recorded for an older
          version are stale *)
  facts : fact_state Atomic.t;
      (** this tensor's facts; every constructor, {!copy} included, makes
          a fresh cell *)
}

val numel : t -> int

val create : Dtype.t -> int list -> t
(** Zero-initialized tensor. *)

val of_float_array : ?dtype:Dtype.t -> int list -> float array -> t
val of_int_array : ?dtype:Dtype.t -> int list -> int array -> t

val flat_index : t -> int array -> int
(** Row-major flat offset; raises [Invalid_argument] when out of bounds. *)

val get_f : t -> int -> float
(** Read element at a flat offset as a float. *)

val get_i : t -> int -> int
val set_f : t -> int -> float -> unit
val set_i : t -> int -> int -> unit
val fill_f : t -> float -> unit
val to_float_array : t -> float array
val to_int_array : t -> int array

val copy : t -> t
(** Deep copy (version 0) with a fresh fact cell: facts declared on the
    copy or the original afterwards, and mutations of either, leave the
    other's facts unchanged. *)

val touch : t -> unit
(** Bump the mutation version once.  The delta path patches the underlying
    arrays directly and calls [touch] exactly once per edit batch, so the
    facts/replica machinery observes a single invalidation instead of one
    per element. *)

val blit : src:t -> dst:t -> pos:int -> len:int -> unit
(** Copy the flat range [[pos, pos+len)] of [src] into the same positions of
    [dst].  Both tensors must use the same storage representation; the
    parallel executor uses this to stitch per-domain write strips back into
    the shared output after a join. *)

val max_abs_diff : t -> t -> float
(** Maximum elementwise |a - b|; sizes must match. *)

val bytes : t -> int
(** Storage size in bytes (used for memory-footprint accounting). *)

(** Structural facts about index tensors, consumed by the write-disjointness
    analysis: a fact is either [declare]d by a format constructor (trusted —
    e.g. a CSR indptr is non-decreasing by construction) or established by a
    cheap O(n) scan.  Both are stored on the tensor itself ({!field-facts}),
    valid for the {!field-version} they were recorded at, and updated by
    compare-and-set, so concurrent domains need no lock and no fact is ever
    evicted while its tensor lives unmutated. *)
module Facts : sig
  type fact =
    | Injective  (** all elements pairwise distinct *)
    | Monotone_nd  (** non-decreasing *)
    | Monotone_inc  (** strictly increasing; implies the other two *)

  val declare : t -> fact -> unit
  (** Record [fact] as true by construction for the tensor's current
      version.  Declarations are trusted — callers assert only what the
      construction actually guarantees. *)

  val declared : t -> fact list
  (** The facts declared (not scanned) for the tensor's current version;
      empty when the tensor mutated since they were declared. *)

  val redeclare_span : t -> fact list -> lo:int -> hi:int -> fact list
  (** Re-establish facts for the tensor's *current* version after an
      in-place patch confined to flat positions [[lo, hi)]: each ordering
      fact in the list is verified over the touched span plus one boundary
      pair on each side — O(hi - lo), not O(n) — and re-declared on
      success.  Returns the facts actually re-established.  Sound only
      under the caller's contract that the facts held before the patch and
      nothing outside the span changed.  [Injective] has no local witness
      and is re-established only when implied by a re-verified
      [Monotone_inc].  Counts against {!span_check_count}, never
      {!scan_count}. *)

  val holds : t -> fact -> bool
  (** Is [fact] known (declared, or implied by a declared/scanned stronger
      fact), or establishable by a scan?  Scans record their verdict —
      positive or negative — until the tensor's next mutation.  Two domains
      asking about the same unrecorded fact at once may both scan.  Always
      false for non-integer storage. *)

  val declare_order : t -> unit
  (** One construction-time pass declaring the strongest ordering fact the
      integer data supports ([Monotone_inc] if strictly increasing, else
      [Monotone_nd] if non-decreasing, else nothing).  Does not count as a
      {!scan_count} scan; no-op on non-integer tensors.  Format constructors
      use this for index arrays whose order is data-dependent (explicit row
      maps). *)

  val scan_count : unit -> int
  (** O(n) scans run so far (checks no recorded fact answered); tests use
      this to observe invalidation. *)

  val span_check_count : unit -> int
  (** O(span) re-verifications run by {!redeclare_span}; kept separate from
      {!scan_count} so the delta path's bounded work stays observable. *)
end
