(* serve-mix: the serving layer under the multi-tenant traffic mix.

   Requests are drawn from [Serve.Traffic.mix] (spmm-csr, spmm-hyb,
   graphsage and rgcn tenants weighted 4:3:1:1, arrival order shuffled by
   the seed).  Each request's instance is made at its due time by its
   family's [f_build] (a compile-cache hit plus fresh bindings), then
   submitted and pumped.  Two phases:

   - open loop at a fixed rate well below capacity: latency runs from a
     request's due time to its completion, so a stalled generator counts
     against the requests it delays; how late the generator ran is
     reported beside it;
   - closed loop keeping [outstanding] requests in flight: completions per
     second give the capacity of back-to-back service.

   The engine budget is 1 domain: the serving loop spawns one domain per
   batch to run it, which with the generator on the main domain keeps two
   busy domains on a two-core host.  Lowering and tuning are bypassed —
   every kernel is compiled during set-up.

   After the timed phases, GraphSAGE training epochs run beside the
   workload ([Sage_epoch]): their outputs and 1-domain allocation are
   checked on every run, and the traced run takes the engine layer rows
   from them. *)

open Formats
module Tr = Serve.Traffic

(* Open-loop arrival rate: below half the closed-loop capacity (75-125
   completions/s on a 2-core x86-64 host), so queueing stays short and
   does not amplify host-speed drift. *)
let rate_per_s = 30.0

(* Share of the run spent in the open loop; the rest is the closed loop. *)
let open_share = 0.5

(* One request in flight: the generator sleeps while the serving domain
   runs, so one core is busy at a time.  With 4 outstanding both cores
   stay busy and the capacity followed contention from the rest of a
   shared host: over ten 55-s runs it spread by 32% of its median
   (96-145 completions/s), against 12% for the open-loop p50. *)
let outstanding = 1

let config =
  { Serve.max_batch = 4; deadline_ms = 2.0; lease_width = 1; max_inflight = 1 }

(* Independent references for each family's output.  They mirror the
   inputs [Serve.Traffic] builds (graphs, features, model sizes and seeds)
   and compute the result on the host from [Formats.Csr.spmm] and the nn
   references, never through the compiler. *)
let references : (string * (float array * float)) list Lazy.t =
  lazy
    (let ga = Lazy.force Tr.graph_a and gb = Lazy.force Tr.graph_b in
     [
       ("spmm-csr", ((Csr.spmm ga (Lazy.force Tr.feats_a)).Dense.data, 1e-5));
       ("spmm-hyb", ((Csr.spmm gb (Lazy.force Tr.feats_b)).Dense.data, 1e-5));
       ( "graphsage",
         ( (Nn.Graphsage.forward_reference gb ~in_feat:8 ~hidden:8 ~out_feat:4
              ~seed:3 ())
             .Dense.data,
           1e-4 ) );
       ( "rgcn",
         ((Nn.Rgcn.reference (Lazy.force Tr.hetero) ~feat:8 ~seed:4 ()).Dense.data,
          1e-4) );
     ])

(* Relative error bound per family: float32 kernels against float64 host
   references. *)
let check (fam : string) (inst : Tr.instance) : bool =
  let want, tol = List.assoc fam (Lazy.force references) in
  Measure.rel_err want (Tir.Tensor.to_float_array inst.Tr.ti_out) <= tol

(* The first [n] arrivals of the seeded mix, drawn over whole weight
   cycles with at least one to spare, so the family counts of the prefix
   (and with them the mean simulated time) vary a little with the seed. *)
let arrivals ~seed n : Tr.family array =
  let cycle = 9 in
  let requests = cycle * ((n / cycle) + 1) in
  Array.sub (Array.of_list (Tr.mix ~seed ~requests ())) 0 n

(* Simulated V100 time of one request of each family, in us.  The hyb
   family is profiled with horizontal fusion, as its kernel documents. *)
let sim_family_us () : (string * float) list =
  Array.to_list
    (Array.map
       (fun (f : Tr.family) ->
         let inst = f.Tr.f_build () in
         let p =
           Gpusim.run_many
             ~horizontal_fusion:(f.Tr.f_name = "spmm-hyb")
             Outcome.v100 inst.Tr.ti_steps
         in
         (f.Tr.f_name, p.Gpusim.p_time_ms *. 1000.0))
       Tr.families)

type setup = {
  setup_s : float;
  misses : int;  (** compile-cache misses *)
  sim_by_family : (string * float) list;
  bad : int;  (** families whose first output was wrong *)
}

(* One set-up: drop every compiled artifact, build and run one instance
   per family (cold compiles), then warm the batched artifact for every
   batch size the server can form, so the timed phases compile nothing.
   The first instances are checked after the set-up's timing stops. *)
let setup () : setup =
  Pipeline.reset ();
  Engine.reset ();
  let t0 = Measure.now () in
  Spans.span ~layer:"workloads" "workloads.gen" (fun () ->
      ignore (Lazy.force Tr.graph_a, Lazy.force Tr.graph_b, Lazy.force Tr.hetero));
  let firsts =
    Array.map
      (fun (f : Tr.family) ->
        let inst =
          Outcome.span_compiling ~layer:"serve" "serve.build" f.Tr.f_build
        in
        Spans.span ~layer:"engine" "engine.execute" (fun () ->
            Gpusim.execute_many inst.Tr.ti_steps);
        for b = 1 to config.Serve.max_batch do
          let s = Serve.create ~config () in
          for _ = 1 to b do
            let i = f.Tr.f_build () in
            ignore (Serve.submit s ~tenant:i.Tr.ti_tenant i.Tr.ti_steps)
          done;
          Spans.span ~layer:"serve" "serve.drain" (fun () -> Serve.drain s)
        done;
        (f.Tr.f_name, inst))
      Tr.families
  in
  let setup_s = Measure.now () -. t0 in
  let misses = Pipeline.cache_misses () in
  {
    setup_s;
    misses;
    sim_by_family = sim_family_us ();
    bad =
      Array.fold_left
        (fun a (name, inst) -> if check name inst then a else a + 1)
        0 firsts;
  }

type served = {
  fam : string;
  mutable inst : Tr.instance option;  (** dropped once checked *)
  mutable good : bool;
  rq : Serve.request;
  due : float;
  t_build : float;  (** [f_build] start *)
  t_submit : float;  (** submit start *)
  t_submitted : float;
}

let outstanding_of (s : Serve.t) : int =
  Serve.queue_depth s
  + List.fold_left
      (fun a (i : Serve.inflight) -> a + List.length i.Serve.in_reqs)
      0 s.Serve.inflight

(* Main-domain time spent inside [Serve.pump]/[Serve.drain]. *)
let pump_ms = ref 0.0

let timed_pump f =
  let t = Measure.now () in
  f ();
  pump_ms := !pump_ms +. ((Measure.now () -. t) *. 1000.0)

let serve_one (s : Serve.t) (f : Tr.family) ~(due : float) : served =
  let t_build = Measure.now () in
  let inst = f.Tr.f_build () in
  let t_submit = Measure.now () in
  let rq = Serve.submit s ~tenant:inst.Tr.ti_tenant inst.Tr.ti_steps in
  let t_submitted = Measure.now () in
  timed_pump (fun () -> Serve.pump s);
  { fam = f.Tr.f_name; inst = Some inst; good = false; rq; due; t_build;
    t_submit; t_submitted }

(* Check the outputs of requests the server has retired (their batch
   domain joined, so their writes are visible) and drop the instances;
   returns the requests still in flight. *)
let check_retired (s : Serve.t) (l : served list) : served list =
  List.filter
    (fun r ->
      let running =
        Float.is_nan r.rq.Serve.rq_done
        || List.exists
             (fun (i : Serve.inflight) -> List.memq r.rq i.Serve.in_reqs)
             s.Serve.inflight
      in
      if not running then begin
        Option.iter (fun i -> r.good <- check r.fam i) r.inst;
        r.inst <- None
      end;
      running)
    l

(* Open loop: request [i] is due at [start + i / rate]. *)
let open_loop ~seed ~(n : int) : Serve.t * served list =
  let fams = arrivals ~seed n in
  let s = Serve.create ~config () in
  let start = Measure.now () +. 0.005 in
  let out = ref [] and unchecked = ref [] in
  Array.iteri
    (fun i f ->
      let due = start +. (float_of_int i /. rate_per_s) in
      let rec wait () =
        let now = Measure.now () in
        if now < due then begin
          timed_pump (fun () -> Serve.pump s);
          unchecked := check_retired s !unchecked;
          let left = due -. Measure.now () in
          if left > 0.0 then Unix.sleepf (Float.min left 0.0005);
          wait ()
        end
      in
      wait ();
      let r = serve_one s f ~due in
      out := r :: !out;
      unchecked := r :: !unchecked)
    fams;
  timed_pump (fun () -> Serve.drain s);
  ignore (check_retired s !unchecked);
  (s, List.rev !out)

(* Width of the closed-loop windows whose completion rates give the
   capacity; the median window discounts a transient stall such as a slow
   domain spawn. *)
let window_s = 0.5

(* Closed loop: keep [outstanding] requests in flight until [t_end]; the
   capacity is the median completion rate over [window_s] windows. *)
let closed_loop ~seed ~(t_end : float) : float * served list =
  let fams = arrivals ~seed:(seed + 1) 4096 in
  let s = Serve.create ~config () in
  let out = ref [] in
  let k = ref 0 in
  let t0 = Measure.now () in
  while Measure.now () < t_end do
    while outstanding_of s < outstanding do
      let f = fams.(!k mod Array.length fams) in
      incr k;
      out := serve_one s f ~due:(Measure.now ()) :: !out
    done;
    timed_pump (fun () -> Serve.pump s);
    if outstanding_of s >= outstanding then Unix.sleepf 0.0001
  done;
  timed_pump (fun () -> Serve.drain s);
  ignore (check_retired s !out);
  (* per window: completions after the window's first, over the time from
     its first completion to its last *)
  let windows = max 1 (int_of_float ((t_end -. t0) /. window_s)) in
  let dones = Array.make windows [] in
  List.iter
    (fun r ->
      let d = r.rq.Serve.rq_done in
      let w = int_of_float ((d -. t0) /. window_s) in
      if w >= 0 && w < windows then dones.(w) <- d :: dones.(w))
    !out;
  let rates =
    Array.to_list dones
    |> List.filter_map (fun ds ->
           match List.sort compare ds with
           | first :: (_ :: _ as rest) ->
               let last = List.nth rest (List.length rest - 1) in
               if last > first then
                 Some (float_of_int (List.length rest) /. (last -. first))
               else None
           | _ -> None)
  in
  ( Measure.median rates,
    List.rev !out )

let latencies (l : served list) : float list =
  List.map (fun r -> (r.rq.Serve.rq_done -. r.due) *. 1000.0) l

let failures (l : served list) : int =
  List.length (List.filter (fun r -> not r.good) l)

(* Record each open-loop request as an op from its due time to its
   completion: generator lateness, build, submit, then queueing and service
   on the serving domains. *)
let record_ops (l : served list) : unit =
  List.iter
    (fun r ->
      Spans.op_interval ("request:" ^ r.fam) ~t0:r.due ~t1:r.rq.Serve.rq_done
        [
          ("wait", "gen.late", r.due, Float.max r.due r.t_build);
          ("serve", "serve.build", r.t_build, r.t_submit);
          ("serve", "serve.submit", r.t_submit, r.t_submitted);
          ("serve", "serve.service", r.t_submitted, r.rq.Serve.rq_done);
        ])
    l

let run ~seed ~seconds ~trace : Outcome.t =
  Engine.set_num_domains 1;
  Spans.enabled := trace;
  let setups = List.init Outcome.setup_reps (fun _ -> setup ()) in
  let setup_s = Measure.median (List.map (fun u -> u.setup_s) setups) in
  let setup_bad = List.fold_left (fun a u -> a + u.bad) 0 setups in
  let selfcheck =
    Outcome.repeats ~what:"compile-cache misses" string_of_int
      (List.map (fun u -> u.misses) setups)
    @ Outcome.repeats ~what:"per-family sim_us"
        (fun l ->
          String.concat ","
            (List.map (fun (n, v) -> Printf.sprintf "%s=%.17g" n v) l))
        (List.map (fun u -> u.sim_by_family) setups)
  in
  let sim_by_family = (List.hd setups).sim_by_family in
  let open_s = seconds *. open_share in
  if not trace then begin
    let n = int_of_float (rate_per_s *. open_s) in
    let compiles0 = Engine.compiles () in
    let s, served = open_loop ~seed ~n in
    (* peak heap over set-up and the fixed-size open loop *)
    let heap = Measure.peak_heap_mb () in
    let cap, closed = closed_loop ~seed ~t_end:(Measure.now () +. seconds -. open_s) in
    let lats = latencies served in
    let sim_us =
      Measure.mean (List.map (fun r -> List.assoc r.fam sim_by_family) served)
    in
    let st = Serve.stats s in
    let all = served @ closed in
    let timed_compiles = Outcome.no_compiles ~since:compiles0 in
    let sage = Sage_epoch.run ~seed ~traced:false in
    {
      Outcome.attempted =
        List.length all + (Array.length Tr.families * Outcome.setup_reps)
        + sage.Sage_epoch.attempted;
      failed = failures all + setup_bad + sage.Sage_epoch.failed;
      end_to_end =
        [
          Outcome.m "setup_s" "s" setup_s;
          Outcome.m "peak_heap_mb" "MB" heap;
          Outcome.m "sim_us" "us" sim_us;
          Outcome.m "p50_ms" "ms" (Measure.median lats);
          Outcome.m "cap_rate_per_s" "1/s" cap;
        ];
      per_layer = [];
      selfcheck =
        selfcheck @ timed_compiles @ sage.Sage_epoch.selfcheck;
      summary =
        [
          Printf.sprintf "open loop: %d requests at %.0f/s, p50 %.2f ms, p95 %.2f ms (%s)"
            (List.length served) rate_per_s (Measure.median lats)
            (Measure.quantile lats 0.95) (Serve.stats_to_string st);
          Printf.sprintf "closed loop: %d outstanding, %.1f completions/s over %d requests"
            outstanding cap (List.length closed);
        ];
    }
  end
  else begin
    (* untraced half, then the same open loop traced *)
    let n = int_of_float (rate_per_s *. seconds /. 2.0) in
    Spans.enabled := false;
    let _, plain = open_loop ~seed ~n in
    Spans.enabled := true;
    pump_ms := 0.0;
    let c0 = Outcome.read_counters () in
    let s, served = open_loop ~seed ~n in
    let c1 = Outcome.read_counters () in
    record_ops served;
    (* beside: a direct engine run of one instance per family, the floor
       under a request's service time *)
    let family_ms =
      Array.to_list
        (Array.map
           (fun (f : Tr.family) ->
             let inst = f.Tr.f_build () in
             let name = "engine.family:" ^ f.Tr.f_name in
             for _ = 1 to 15 do
               Spans.beside ~layer:"engine" name (fun () ->
                   Gpusim.execute_many inst.Tr.ti_steps)
             done;
             Outcome.m ("engine.family_ms." ^ f.Tr.f_name) "ms"
               (Measure.median (Spans.durations ~kind:Spans.Beside name)))
           Tr.families)
    in
    let st = Serve.stats s in
    let lats = latencies served and plain_lats = latencies plain in
    let dur name = Spans.durations name in
    let nreq = List.length served in
    let counters = Outcome.counter_rows ~ops:nreq c0 c1 in
    let accounting =
      Outcome.accounting_rows
        ~untraced_p50:(Measure.median plain_lats)
        ~traced_p50:(Measure.median lats)
    in
    (* beside: GraphSAGE training epochs, for the engine layer rows *)
    let sage = Sage_epoch.run ~seed ~traced:true in
    Spans.enabled := false;
    {
      Outcome.attempted =
        List.length plain + nreq + (Array.length Tr.families * Outcome.setup_reps)
        + sage.Sage_epoch.attempted;
      failed = failures plain + failures served + setup_bad + sage.Sage_epoch.failed;
      end_to_end = [];
      per_layer =
        [
          Outcome.m "serve.build_ms" "ms" (Measure.median (dur "serve.build"));
          Outcome.m "serve.submit_ms" "ms" (Measure.median (dur "serve.submit"));
          Outcome.m "serve.pump_ms" "ms" (!pump_ms /. float_of_int (max 1 nreq));
          Outcome.m "serve.service_ms" "ms" (Measure.median (dur "serve.service"));
          Outcome.m "serve.gen_late_ms" "ms" (Measure.quantile (dur "gen.late") 0.95);
          Outcome.m "serve.p95_ms" "ms" (Measure.quantile lats 0.95);
          Outcome.m "serve.occupancy" "count" st.Serve.s_occupancy;
          Outcome.m "serve.batches" "count" (float_of_int st.Serve.s_batches);
          Outcome.m "serve.warm_ratio" "ratio" st.Serve.s_warm_ratio;
          Outcome.m "serve.max_queue" "count" (float_of_int st.Serve.s_max_queue);
          (* the Traffic inputs are generated once, in the first set-up *)
          Outcome.m "workloads.gen_ms" "ms"
            (match dur "workloads.gen" with d :: _ -> d | [] -> 0.0);
        ]
        @ family_ms @ sage.Sage_epoch.per_layer @ counters @ accounting;
      selfcheck = selfcheck @ sage.Sage_epoch.selfcheck;
      summary =
        [ Printf.sprintf "traced open loop: %d requests (%s)" nreq
            (Serve.stats_to_string st) ];
    }
  end
