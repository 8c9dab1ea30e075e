(* Serving subsystem: batched multi-tenant execution must be bit-identical
   to sequential execution — under random arrival orders, random batching
   configs, concurrent leased drivers, and forced artifact eviction. *)

open Formats

let with_domains (n : int) (f : unit -> 'a) : 'a =
  let saved = Engine.num_domains () in
  Engine.set_num_domains n;
  Fun.protect ~finally:(fun () -> Engine.set_num_domains saved) f

(* ---------------- batched funcs ---------------- *)

let graph () =
  Workloads.Graphs.generate ~seed:5
    { Workloads.Graphs.g_name = "serve_t"; g_nodes = 100; g_edges = 700;
      g_shape = Workloads.Graphs.Power_law 1.7 }

(* batch_func over B instances of one template: one launch of the batched
   artifact must write every instance's output exactly as B single runs. *)
let test_batch_func_bit_identical () =
  let a = graph () in
  let feat = 16 in
  let x = Dense.random ~seed:2 a.Csr.cols feat in
  let insts = List.init 3 (fun _ -> Kernels.Spmm.dgsparse a x ~feat) in
  let refs = List.init 3 (fun _ -> Kernels.Spmm.dgsparse a x ~feat) in
  let tmpl = (List.hd insts).Kernels.Spmm.fn in
  List.iter
    (fun (c : Kernels.Spmm.compiled) ->
      Alcotest.(check bool) "instances share the physical template" true
        (c.Kernels.Spmm.fn == tmpl))
    insts;
  let batched = Serve.batch_func ~copies:3 tmpl in
  let args =
    List.concat_map
      (fun (c : Kernels.Spmm.compiled) ->
        Gpusim.args_for tmpl c.Kernels.Spmm.bindings)
      insts
  in
  Engine.execute ~kind:Engine.Compiled batched args;
  List.iter
    (fun (r : Kernels.Spmm.compiled) ->
      Gpusim.execute r.Kernels.Spmm.fn r.Kernels.Spmm.bindings)
    refs;
  List.iter2
    (fun (c : Kernels.Spmm.compiled) (r : Kernels.Spmm.compiled) ->
      Alcotest.(check bool) "batched copy bit-identical to single run" true
        (Tir.Tensor.to_float_array c.Kernels.Spmm.out
        = Tir.Tensor.to_float_array r.Kernels.Spmm.out))
    insts refs

let test_batch_func_single_copy_is_identity () =
  let a = graph () in
  let c = Kernels.Spmm.dgsparse a (Dense.random ~seed:3 a.Csr.cols 8) ~feat:8 in
  Alcotest.(check bool) "copies=1 returns the template itself" true
    (Serve.batch_func ~copies:1 c.Kernels.Spmm.fn == c.Kernels.Spmm.fn)

(* ---------------- lease accounting ---------------- *)

let test_lease_accounting () =
  with_domains 4 (fun () ->
      let l1 = Engine.try_lease ~width:2 in
      let l2 = Engine.try_lease ~width:2 in
      Alcotest.(check bool) "two width-2 leases fit a budget of 4" true
        (Option.is_some l1 && Option.is_some l2);
      Alcotest.(check bool) "budget exhausted" true
        (Option.is_none (Engine.try_lease ~width:1));
      Alcotest.(check int) "two outstanding" 2 (Engine.leases_in_use ());
      let l1 = Option.get l1 and l2 = Option.get l2 in
      Alcotest.(check int) "width recorded" 2 (Engine.lease_width l1);
      Engine.release l1;
      Engine.release l1 (* idempotent *);
      Alcotest.(check bool) "freed capacity re-leases" true
        (Option.is_some
           (match Engine.try_lease ~width:2 with
           | Some l ->
               Engine.release l;
               Some l
           | None -> None));
      Engine.release l2;
      Alcotest.(check int) "all released" 0 (Engine.leases_in_use ());
      Alcotest.check_raises "released lease cannot run"
        (Invalid_argument "Engine.run_leased: released lease") (fun () ->
          Engine.run_leased l1 (fun () -> ())))

(* A posted driver runs on a pool worker of its own and holds its lease
   until joined; join re-raises the body's exception and still releases. *)
let test_leased_driver () =
  with_domains 2 (fun () ->
      let caller = (Domain.self () :> int) in
      let d =
        Option.get
          (Engine.post_leased ~width:2 (fun () () -> (Domain.self () :> int)))
      in
      Alcotest.(check bool) "driver holds the budget until joined" true
        (Option.is_none (Engine.try_lease ~width:1));
      Alcotest.(check bool) "body ran off the caller" true
        (Engine.join_driver d <> caller);
      Alcotest.(check int) "join released the lease" 0 (Engine.leases_in_use ());
      let d =
        Option.get (Engine.post_leased ~width:1 (fun () () -> failwith "body"))
      in
      Alcotest.check_raises "join re-raises" (Failure "body") (fun () ->
          Engine.join_driver d);
      Alcotest.(check int) "failed driver released" 0 (Engine.leases_in_use ()))

(* A parallel region opened on an unleased domain while leases hold the
   whole budget must not touch the leased workers: no unit is free, so it
   runs on the caller's domain alone.  A Par-loop kernel run that way stays
   bit-identical to 1-domain execution. *)
let test_unleased_region_respects_leases () =
  with_domains 2 (fun () ->
      let a = graph () in
      let feat = 16 in
      let x = Dense.random ~seed:4 a.Csr.cols feat in
      let run ?num_domains (k : Kernels.Spmm.compiled) =
        Tir.Tensor.fill_f k.Kernels.Spmm.out 0.0;
        Gpusim.execute ?num_domains k.Kernels.Spmm.fn k.Kernels.Spmm.bindings;
        Tir.Tensor.to_float_array k.Kernels.Spmm.out
      in
      let k = Kernels.Spmm.sparsetir_no_hyb a x ~feat in
      let serial = run ~num_domains:1 k in
      let art = Engine.artifact k.Kernels.Spmm.fn in
      let lease = Option.get (Engine.try_lease ~width:2) in
      let leased_par, leased_out =
        Fun.protect
          ~finally:(fun () -> Engine.release lease)
          (fun () ->
            let caller = (Domain.self () :> int) in
            let seen = Array.make 4 (-1) in
            (* each task sleeps so a woken worker would get to pull one *)
            Engine.parallel_tasks 4 (fun i ->
                Unix.sleepf 0.005;
                seen.(i) <- (Domain.self () :> int));
            Array.iteri
              (fun i d ->
                Alcotest.(check int)
                  (Printf.sprintf "task %d ran on the caller" i)
                  caller d)
              seen;
            let par0 = Engine.par_runs art in
            let out = run k in
            (Engine.par_runs art - par0, out))
      in
      Alcotest.(check int) "kernel took no leased worker" 0 leased_par;
      Alcotest.(check bool) "kernel under a full lease = 1 domain" true
        (leased_out = serial);
      let par0 = Engine.par_runs art in
      let free_out = run k in
      Alcotest.(check bool) "the kernel is a Par loop" true
        (Engine.par_runs art > par0);
      Alcotest.(check bool) "kernel at 2 domains = 1 domain" true
        (free_out = serial);
      Alcotest.(check int) "region leases released" 0
        (Engine.leases_in_use ()))

(* ---------------- served = sequential (QCheck) ---------------- *)

(* One served window: submit [requests] mixed-tenant instances in a
   seeded-shuffled arrival order, drain, then execute sibling instances
   sequentially and demand exact equality of every output. *)
let serve_matches_sequential ~(seed : int) ~(requests : int)
    ~(max_batch : int) () : bool =
  let fams = Serve.Traffic.mix ~seed ~requests () in
  let cfg =
    {
      Serve.max_batch;
      deadline_ms = 0.2;
      lease_width = 2;
      max_inflight = 2;
    }
  in
  let s = Serve.create ~config:cfg () in
  let pairs =
    List.map
      (fun (f : Serve.Traffic.family) ->
        let inst = f.Serve.Traffic.f_build () in
        let refr = f.Serve.Traffic.f_build () in
        ignore
          (Serve.submit s ~tenant:inst.Serve.Traffic.ti_tenant
             inst.Serve.Traffic.ti_steps);
        Serve.pump s;
        (inst, refr))
      fams
  in
  Serve.drain s;
  let st = Serve.stats s in
  if st.Serve.s_requests <> requests then false
  else
    List.for_all
      (fun ((i : Serve.Traffic.instance), (r : Serve.Traffic.instance)) ->
        Gpusim.execute_many r.Serve.Traffic.ti_steps;
        Serve.Traffic.identical i.Serve.Traffic.ti_out r.Serve.Traffic.ti_out)
      pairs

let qcheck_serve_sequential =
  QCheck.Test.make ~count:6 ~name:"served batches = sequential execution"
    QCheck.(triple (int_range 0 1000) (int_range 3 10) (int_range 1 4))
    (fun (seed, requests, max_batch) ->
      with_domains 2 (fun () ->
          serve_matches_sequential ~seed ~requests ~max_batch ()))

(* Same property with the pipeline cache squeezed to 2 entries: batched
   artifacts are evicted (and their engine memo entries unregistered)
   between and during windows, so cold rebuilds and plans holding evicted
   artifacts must still serve exact results. *)
let qcheck_serve_under_eviction =
  QCheck.Test.make ~count:4 ~name:"served = sequential under LRU eviction"
    QCheck.(pair (int_range 0 1000) (int_range 3 8))
    (fun (seed, requests) ->
      let saved = Pipeline.cache_capacity () in
      Fun.protect
        ~finally:(fun () -> Pipeline.set_cache_capacity saved)
        (fun () ->
          Pipeline.set_cache_capacity 2;
          with_domains 2 (fun () ->
              serve_matches_sequential ~seed ~requests ~max_batch:3 ())))

(* ---------------- warm reuse ---------------- *)

(* Two identical windows: the second must serve a positive warm-hit ratio
   from the tenant-scoped artifact cache. *)
let test_steady_state_warm_hits () =
  with_domains 2 (fun () ->
      let window () =
        let fams = Serve.Traffic.mix ~seed:42 ~requests:8 () in
        let s = Serve.create () in
        List.iter
          (fun (f : Serve.Traffic.family) ->
            let inst = f.Serve.Traffic.f_build () in
            ignore
              (Serve.submit s ~tenant:inst.Serve.Traffic.ti_tenant
                 inst.Serve.Traffic.ti_steps);
            Serve.pump s)
          fams;
        Serve.drain s;
        Serve.stats s
      in
      ignore (window ());
      let st = window () in
      Alcotest.(check bool) "steady window reuses batched artifacts" true
        (st.Serve.s_warm_ratio > 0.0))

(* ---------------- evolving-graph traffic ---------------- *)

(* A tenant whose graph mutates between requests: each epoch's served
   output must be bit-identical to a cold rebuild of the same epoch, and
   epochs whose deltas rebuilt no bucket must not bump the live
   generation (the serving loop kept its bindings). *)
let test_evolving_traffic () =
  with_domains 2 (fun () ->
      let ev = Serve.Traffic.evolving ~seed:23 ~edits:16 () in
      let s = Serve.create () in
      for _epoch = 1 to 4 do
        let inst, _info = ev.Serve.Traffic.ev_step () in
        ignore
          (Serve.submit s ~tenant:inst.Serve.Traffic.ti_tenant
             inst.Serve.Traffic.ti_steps);
        Serve.drain s;
        let refr = ev.Serve.Traffic.ev_reference () in
        Gpusim.execute_many refr.Serve.Traffic.ti_steps;
        Alcotest.(check bool) "served epoch = cold rebuild" true
          (Serve.Traffic.identical inst.Serve.Traffic.ti_out
             refr.Serve.Traffic.ti_out)
      done;
      let st = Serve.stats s in
      Alcotest.(check int) "every epoch served" 4 st.Serve.s_requests)

(* ---------------- bounded memory ---------------- *)

(* Submit one SpMM request and drain it; returns a weak handle on the
   request's output tensor.  Kept out of line so no caller frame holds the
   kernel, its bindings or the request. *)
let[@inline never] serve_one (s : Serve.t) : Tir.Tensor.t Weak.t =
  let a = graph () in
  let feat = 8 in
  let c = Kernels.Spmm.dgsparse a (Dense.random ~seed:7 a.Csr.cols feat) ~feat in
  let w = Weak.create 1 in
  Weak.set w 0 (Some c.Kernels.Spmm.out);
  ignore
    (Serve.submit s ~tenant:"gc"
       [ (c.Kernels.Spmm.fn, c.Kernels.Spmm.bindings) ]);
  Serve.drain s;
  w

(* A server keeps only the count and latencies of retired requests: once
   the caller drops its handles, a drained request's output tensor is
   collectable while the server itself lives on. *)
let test_drained_outputs_collectable () =
  with_domains 1 (fun () ->
      let s = Serve.create () in
      let w = serve_one s in
      Gc.full_major ();
      Alcotest.(check bool) "drained output collected" false (Weak.check w 0);
      let st = Serve.stats s in
      Alcotest.(check int) "stats still count the request" 1
        st.Serve.s_requests;
      Alcotest.(check bool) "latency recorded" true (st.Serve.s_p50_ms > 0.0))

let () =
  Alcotest.run "serve"
    [ ( "batching",
        [ Alcotest.test_case "batched func bit-identical" `Quick
            test_batch_func_bit_identical;
          Alcotest.test_case "single copy is identity" `Quick
            test_batch_func_single_copy_is_identity ] );
      ( "leases",
        [ Alcotest.test_case "lease accounting" `Quick test_lease_accounting;
          Alcotest.test_case "leased driver" `Quick test_leased_driver;
          Alcotest.test_case "unleased region respects leases" `Quick
            test_unleased_region_respects_leases ] );
      ( "scheduling",
        [ QCheck_alcotest.to_alcotest qcheck_serve_sequential;
          QCheck_alcotest.to_alcotest qcheck_serve_under_eviction;
          Alcotest.test_case "steady-state warm hits" `Quick
            test_steady_state_warm_hits ] );
      ( "evolving",
        [ Alcotest.test_case "evolving tenant = cold rebuild" `Quick
            test_evolving_traffic ] );
      ( "memory",
        [ Alcotest.test_case "drained outputs collectable" `Quick
            test_drained_outputs_collectable ] ) ]
