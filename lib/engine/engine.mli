(** Compiled execution engine for Stage III programs.

    An ahead-of-time closure compiler: a verified flat func is translated
    once into nested native OCaml closures with variables resolved to
    pre-allocated slot arrays and dtype dispatch monomorphized into unboxed
    int/float paths, then invoked per execution.  Semantics are exactly those
    of the tree-walking interpreter {!Tir.Eval} (enforced by the differential
    harness in test/test_engine.ml); the win is throughput.  See DESIGN.md
    §3c. *)

exception Compile_error of string
(** Static failure: a sparse construct that should have been lowered away, or
    an unbound variable/buffer.  Runtime failures (division by zero, argument
    arity, out-of-bounds stores) raise the same exceptions as the
    interpreter. *)

(** {1 Compiled artifacts} *)

type compiled
(** A Stage III func compiled to closures, ready to run any number of times
    against different argument tensors. *)

val compile : Tir.Ir.func -> compiled
(** Translate a flat func to closures.  Raises {!Compile_error} on sparse
    constructs or unbound names; performs no tensor work. *)

val run : compiled -> Tir.Tensor.t list -> unit
(** Execute against tensors for each parameter buffer, in order.  Raises
    [Tir.Eval.Eval_error] on arity mismatch, like [Tir.Eval.run_func]. *)

val name : compiled -> string

val par_runs : compiled -> int
(** Executions of this artifact's thread-bound outer loops that took the
    domains-parallel path (disjointness proven, a region wider than one
    domain granted). *)

val fallback_runs : compiled -> int
(** Executions of thread-bound outer loops forced serial because
    write-disjointness could not be proven. *)

val fallback_reasons : compiled -> (string * int) list
(** {!fallback_runs} broken down by {!Tir.Analysis.fail_reason} label
    (["indirect"], ["bsearch"], ["non-linear"], ["no-witness"]), in that
    fixed order.  Runtime tensor-fact failures on a gather witness count
    under ["indirect"]. *)

val tiled_runs : compiled -> int
(** Parallel runs in which at least one narrow output buffer was given
    per-domain write strips (private copies stitched after the join). *)

val reasons_to_string : (string * int) list -> string
(** Compact ["label=n,..."] rendering of the nonzero counters; ["-"] when
    every counter is zero. *)

(** {1 Fusion peephole}

    With fusion enabled (the default), codegen applies three rewrites, all
    bit-identical to the unfused closures (see DESIGN.md §3e):
    accumulating stores [C[i] <- C[i] + a *. b] fuse into a single
    FMA-style closure computing one strict offset; loop-invariant buffer
    index arithmetic ({!Tir.Analysis.invariant_of_loop}) is pre-evaluated
    into slots once per loop entry; and indices linear in the loop var are
    strength-reduced from a per-iteration multiply to a running add,
    re-seeded per chunk so the rewrite composes with the domains-parallel
    path (hoisted and running slots live in the per-domain state
    replicas). *)

val set_fusion : bool -> unit
(** Enable/disable the peephole for subsequent {!compile}s (default
    enabled).  Read at compile time, not run time: artifacts already
    memoized keep the setting they were compiled under — differential
    tests compile the same func once per setting via {!compile}. *)

val fusion : unit -> bool
(** Current fusion setting. *)

val fused_sites : compiled -> int
(** Stores fused into single load-accumulate closures, per artifact. *)

val hoisted_sites : compiled -> int
(** Loop-invariant index expressions hoisted into loop prologues. *)

val linear_sites : compiled -> int
(** Indices strength-reduced from per-iteration multiplies to running
    adds. *)

val fusion_totals : unit -> int * int * int
(** Process-wide [(fused, hoisted, linear)] site totals across every
    compile since the last {!reset}. *)

val parallel_totals : unit -> int * int * int
(** Process-wide [(par_runs, fallback_runs, tiled_runs)] across every
    artifact since the last {!reset}. *)

val reason_totals : unit -> (string * int) list
(** Process-wide fallback counts by reason label, same order as
    {!fallback_reasons}. *)

(** {1 Domains-parallel execution}

    Outer [For] loops bound to [Block_x]/[Block_y]/[Block_z] whose bodies
    earn a [Par] verdict from {!Tir.Analysis.loop_disjointness} run their
    iterations across a fixed pool of OCaml domains: each domain gets a
    private copy of the slot arrays (tensors stay shared — the witnesses
    guarantee write regions are disjoint) and runs contiguous iteration
    chunks handed out by one work-stealing scheduler: each worker owns a
    contiguous range, pops chunks of {!chunk_grain} iterations off its low
    end, and steals the upper half of another worker's range when its own
    runs dry.  Cuts land only on align multiples or monotone-map segment
    bounds, and chunks are logged by whichever worker ran them, so outputs
    stay bit-identical to serial execution.

    The runtime is persistent per artifact: replica states, chunk logs and
    narrow-output strip copies are cached on each parallel loop site and
    refreshed by blits on subsequent runs — {!replica_builds} counts the
    runs that could not reuse them.  A cache is invalidated when the
    domain count changes, when a runtime tensor-fact check fails, or when
    the artifact itself is dropped ({!unregister}); concurrent leased
    drivers executing the same artifact race for the cache and the loser
    falls back to transient allocations for that run.

    Gather witnesses ([store C[.. map[i] ..]]) are resolved per run against
    the bound map tensor's facts ({!Tir.Tensor.Facts}): injective maps chunk
    anywhere; merely non-decreasing maps (hyb's widest bucket repeats a row
    across its split pseudo-rows) get chunk cuts aligned to strict increases
    of the map so no output row straddles two domains; unprovable maps fall
    back to serial for that run, counted under the ["indirect"] reason.

    Narrow direct-witness outputs (a whole iteration slab smaller than a
    cache line) are tiled per domain: workers write private copies whose
    chunk regions are blitted back into the shared tensor after the join,
    and the chunk grain is rounded so cuts land on cache-line boundaries —
    both kill false sharing on adjacent rows.

    Unprovable loops fall back to serial execution.  The domain count is read
    per run, so memoized artifacts remain valid when the knob changes. *)

val chunk_grain : n:int -> domains:int -> align:int -> int
(** Iterations per scheduler chunk for an [n]-iteration loop across
    [domains] domains: ceil(n / (4 * domains)) — at most [4 * domains]
    chunks, never a degenerate 1-iteration flood at small [n] — rounded up
    to a multiple of [align] and capped at one aligned per-domain share.
    Always at least [max 1 align]. *)

val num_domains : unit -> int
(** Current domain budget for parallel loops; [1] disables parallelism.
    Initially [Domain.recommended_domain_count ()]. *)

val set_num_domains : int -> unit
(** Set the domain budget.  This is the single clamp in the stack: any
    value [<= 0] uniformly means "auto" ([Domain.recommended_domain_count]),
    and the CLI [--domains], bench [--domains=] and [?num_domains] all pass
    their value through here unchanged.  Worker domains are spawned lazily,
    only by the lease allocator, and kept for the process lifetime. *)

val pool_size : unit -> int
(** Worker domains spawned so far (excludes the calling domain). *)

val replica_builds : unit -> int
(** Parallel runs since the last {!reset} that had to (re)build per-domain
    replica states instead of reusing an artifact's cached set.  Flat across
    repeated executions of a warm artifact; increments when the domain
    budget changes, after a runtime fact failure, or when two leased
    drivers race for one artifact's cache. *)

val stolen_chunks : unit -> int
(** Steal transfers performed by parallel loops since the last {!reset}
    (0 when no loop ran parallel or no worker ever ran dry early). *)

(** {1 Domain leases}

    Every second domain comes from the persistent pool under a lease: [w]
    units of the {!num_domains} budget, backed by [w - 1] pool workers plus
    the holder's own domain.  Worker sets are disjoint and outstanding
    widths never exceed the budget.  A parallel region (a [Par] loop or a
    {!parallel_tasks} call) on a domain with a current lease ({!run_leased})
    runs on that lease's workers; on any other domain it leases its width
    for its own length — narrower when fewer units are free, serial when
    none are. *)

type lease
(** An exclusive reservation of part of the domain budget. *)

val try_lease : width:int -> lease option
(** Reserve [width] domains' worth of parallel capacity ([width - 1] pool
    workers; clamped below at 1).  [None] when the outstanding leases plus
    [width] would exceed the {!num_domains} budget.  Never blocks. *)

val release : lease -> unit
(** Return the lease's workers to the free set.  Idempotent.  The lease must
    no longer be current on any domain. *)

val lease_width : lease -> int

val run_leased : lease -> (unit -> 'a) -> 'a
(** Run [f] with the lease current for the calling domain: parallel regions
    inside use at most [lease_width] domains, steered onto the leased
    workers.  Raises [Invalid_argument] on a released lease. *)

val leases_in_use : unit -> int
(** Outstanding (unreleased) leases, including parallel regions' own. *)

type 'a driver
(** A body running under a lease of its own on a reserved pool worker. *)

val post_leased : width:int -> (unit -> unit -> 'a) -> 'a driver option
(** [post_leased ~width prepare] leases [width] units (at least 1) plus a
    pool worker for the driver itself, then runs [prepare ()] on the caller
    (for work that must stay there, such as compilation) and posts the body
    it returns onto the driver's worker under {!run_leased}.  [None], having
    called nothing, when fewer than [width] units are free. *)

val driver_done : 'a driver -> bool
(** The body has returned or raised.  Non-blocking. *)

val join_driver : 'a driver -> 'a
(** Wait for the body, release its lease, and return its result or
    re-raise its exception. *)

(** {1 Parallel construction tasks}

    Format constructors ({!Formats.Descriptor.build}, [Hyb.of_csr]) spread
    independent construction tasks over the leased pool. *)

val parallel_tasks : int -> (int -> unit) -> unit
(** [parallel_tasks k f] runs [f 0 .. f (k-1)] to completion in one parallel
    region, one task per steal unit of the work-stealing scheduler.  Tasks
    must be independent; no ordering is guaranteed between them.  The
    first exception a task raises is re-raised after the join.  Runs
    serially when no second domain is free or when called from inside a
    task. *)

val parallel_width : unit -> int
(** The width a {!parallel_tasks} call on this domain would get if it opened
    now: the lease width for leased drivers, the budget's free units
    otherwise, and [1] inside a task body.  Lets construction code size its
    fan-out (and skip slicing work that would not parallelize). *)

(** {1 Engine selection and memoized dispatch} *)

type kind = Interp | Compiled

val kind_to_string : kind -> string

val kind_of_string : string -> kind
(** Accepts ["interp"]/["eval"] and ["compiled"]/["engine"]; raises
    [Invalid_argument] otherwise. *)

val default_kind : kind ref
(** Engine used when callers do not pass [?kind]/[?engine] explicitly.
    Defaults to [Compiled]; the [--engine] CLI flags set it. *)

val artifact : Tir.Ir.func -> compiled
(** Memoized {!compile}: keyed on the func's physical identity, so the
    pipeline compile cache returning the same func value means a warm build
    or tuner search compiles nothing.  This memo is the only store of
    artifacts; the compile cache holds lowered funcs only. *)

val unregister : Tir.Ir.func -> unit
(** Drop the memoized artifact for a func, if any.  The pipeline compile
    cache calls this when it evicts or clears an entry, keeping the memo
    bounded. *)

val execute :
  ?kind:kind -> ?num_domains:int -> Tir.Ir.func -> Tir.Tensor.t list -> unit
(** Run a func through the selected engine ([!default_kind] when [?kind] is
    omitted): [Interp] dispatches to [Tir.Eval.run_func], [Compiled] to the
    memoized artifact.  [?num_domains] overrides the domain budget for this
    run only. *)

val compiles : unit -> int
(** Number of codegen runs since the last {!reset} (memo hits excluded). *)

val memo_size : unit -> int

val reset : unit -> unit
(** Drop every memoized artifact and zero the compile counter and the
    process-wide run/fusion totals.  A func the pipeline cache still holds
    compiles again on its next execution, into a fresh artifact whose own
    counters start from zero, so a fresh serving window counts from zero. *)
