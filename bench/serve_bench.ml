(* Serving bench: the synthetic multi-tenant GNN mix of [Serve.Traffic]
   (spmm-csr / spmm-hyb / graphsage / rgcn tenants) pushed through the
   serving loop in two phases.  The cold phase compiles every batched
   artifact and validates each served request bit-for-bit against a
   sequentially executed sibling instance; the steady phase replays the
   same tenant mix against the now-warm artifact cache — its warm-hit
   ratio must be positive, and its req/s is the headline metric written
   to BENCH_serve.json for the trend gate. *)

let run_phase ~(name : string) ~(validate : bool) ~(requests : int)
    ~(seed : int) (cfg : Serve.config) : Serve.stats =
  let fams = Serve.Traffic.mix ~seed ~requests () in
  let s = Serve.create ~config:cfg () in
  (* build every instance before the first submit so queueing reflects
     serving, not request construction *)
  let built =
    List.map
      (fun (f : Serve.Traffic.family) ->
        let inst = f.Serve.Traffic.f_build () in
        let refr = if validate then Some (f.Serve.Traffic.f_build ()) else None in
        (f, inst, refr))
      fams
  in
  List.iter
    (fun ((_, inst, _) : Serve.Traffic.family * Serve.Traffic.instance * _) ->
      ignore (Serve.submit s ~tenant:inst.Serve.Traffic.ti_tenant
                inst.Serve.Traffic.ti_steps);
      Serve.pump s)
    built;
  Serve.drain s;
  let st = Serve.stats s in
  Printf.printf "%-8s %s\n%!" name (Serve.stats_to_string st);
  if validate then
    List.iter
      (fun ((f : Serve.Traffic.family), inst, refr) ->
        match refr with
        | None -> ()
        | Some (r : Serve.Traffic.instance) ->
            Gpusim.execute_many r.Serve.Traffic.ti_steps;
            if
              not
                (Serve.Traffic.identical inst.Serve.Traffic.ti_out
                   r.Serve.Traffic.ti_out)
            then
              failwith
                (Printf.sprintf
                   "serve bench: batched result diverges from sequential \
                    execution for %s"
                   f.Serve.Traffic.f_name))
      built;
  st

(* Evolving-graph phase (DESIGN.md §3i): one tenant whose graph mutates
   between requests.  Each epoch applies an O(Δ) edge-delta batch to the
   live hyb and serves the re-derived instance; the first epoch is
   validated bit-for-bit against a cold rebuild.  Its req/s rides along in
   BENCH_serve.json as an
   informational row — new rows are reported by the trend tool but never
   gated, so the phase can't trip the gate on a baseline that predates
   it. *)
let run_evolving ~(epochs : int) (cfg : Serve.config) : Serve.stats =
  let ev = Serve.Traffic.evolving ~seed:29 ~edits:24 () in
  let s = Serve.create ~config:cfg () in
  for epoch = 1 to epochs do
    let inst, _info = ev.Serve.Traffic.ev_step () in
    ignore
      (Serve.submit s ~tenant:inst.Serve.Traffic.ti_tenant
         inst.Serve.Traffic.ti_steps);
    Serve.drain s;
    if epoch = 1 then begin
      let r = ev.Serve.Traffic.ev_reference () in
      Gpusim.execute_many r.Serve.Traffic.ti_steps;
      if
        not
          (Serve.Traffic.identical inst.Serve.Traffic.ti_out
             r.Serve.Traffic.ti_out)
      then
        failwith
          "serve bench: evolving epoch diverges from a cold rebuild of the \
           same graph"
    end
  done;
  let st = Serve.stats s in
  Printf.printf "%-8s %s  (%d epochs, %d bucket-shape generations)\n%!"
    "evolve" (Serve.stats_to_string st) epochs
    (ev.Serve.Traffic.ev_generation ());
  st

let run ?(full = false) () =
  Report.header "Serve: async batched multi-tenant execution (lib/serve)";
  let requests = if full then 96 else 32 in
  let cfg =
    {
      Serve.max_batch = 4;
      deadline_ms = 1.0;
      lease_width = 2;
      max_inflight = 2;
    }
  in
  let cold = run_phase ~name:"cold" ~validate:true ~requests ~seed:13 cfg in
  let steady = run_phase ~name:"steady" ~validate:false ~requests ~seed:17 cfg in
  if steady.Serve.s_warm_ratio <= 0.0 then
    failwith "serve bench: steady-state phase hit no warm batched artifacts";
  let evolve = run_evolving ~epochs:(if full then 24 else 8) cfg in
  Printf.printf
    "(cold phase and first evolving epoch validated bit-identical against \
     sequential execution)\n";
  let row (name : string) (st : Serve.stats) =
    ( name,
      st.Serve.s_req_per_s,
      st.Serve.s_p99_ms,
      st.Serve.s_occupancy,
      st.Serve.s_warm_ratio )
  in
  Report.write_serve_json ~path:"BENCH_serve.json"
    ~domains:(Engine.num_domains ())
    ~headline:steady.Serve.s_req_per_s
    [ row "cold" cold; row "steady" steady; row "evolve" evolve ]
