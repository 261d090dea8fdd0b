type design = Kvserver.Design.t

let all_designs = Kvserver.Design.all ()

let design_name = Kvserver.Design.name

let maker = Kvserver.Design.make

type scale = {
  duration_us : float;
  warmup_us : float;
  epoch_us : float;
  slo_iters : int;
  phase_us : float;
  window_us : float;
}

let full_scale =
  {
    duration_us = 400_000.0;
    warmup_us = 150_000.0;
    epoch_us = 50_000.0;
    slo_iters = 7;
    phase_us = 2_000_000.0;
    window_us = 200_000.0;
  }

let quick_scale =
  {
    duration_us = 120_000.0;
    warmup_us = 40_000.0;
    epoch_us = 15_000.0;
    slo_iters = 7;
    phase_us = 500_000.0;
    window_us = 50_000.0;
  }

let scale_of ~quick = if quick then quick_scale else full_scale

(* Dataset memoization: sizes depend on shape fields only, so the key is
   the tuple of those fields.  Guarded by a mutex — {!Par} runs experiment
   points on several domains, and all of them share this cache.  Creation
   happens under the lock so a dataset is built exactly once (a duplicate
   build would waste tens of milliseconds and break sharing).  The build's
   own tasks run through {!Par} too: on the main domain they spread over
   the pool, from a worker they run in order, and the dataset is the same
   bits either way.  Holding the lock cannot deadlock the pool, since the
   caller of [Par.map] claims every task the pool does not. *)
let dataset_mutex = Mutex.create ()

let dataset_cache : (int * int * int * float * float * int, Workload.Dataset.t) Hashtbl.t
    =
  Hashtbl.create 8

let dataset_for (spec : Workload.Spec.t) =
  let key =
    ( spec.Workload.Spec.n_keys,
      spec.Workload.Spec.n_large_keys,
      spec.Workload.Spec.s_large_max,
      spec.Workload.Spec.tiny_fraction,
      spec.Workload.Spec.zipf_theta,
      spec.Workload.Spec.key_size )
  in
  Mutex.lock dataset_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock dataset_mutex)
    (fun () ->
      match Hashtbl.find_opt dataset_cache key with
      | Some d -> d
      | None ->
          let d = Workload.Dataset.create ~run:Par.run spec in
          Hashtbl.add dataset_cache key d;
          d)

let config_of_scale ?(base = Kvserver.Config.default) scale =
  {
    base with
    Kvserver.Config.duration_us = scale.duration_us;
    warmup_us = scale.warmup_us;
    epoch_us = scale.epoch_us;
  }

module Spec = struct
  type t = {
    design : Kvserver.Design.t;
    workload : Workload.Scenario.t;
    offered_mops : float;
    cfg : Kvserver.Config.t;
    seed : int;
    dynamic : Workload.Dynamic.t option;
    trace : Workload.Trace.t option;
    obs : Obs.Instrument.t option;
    fault : Fault.Inject.t option;
  }

  let make design =
    {
      design;
      workload = Workload.Scenario.default;
      offered_mops = 3.0;
      cfg = config_of_scale full_scale;
      seed = 1;
      dynamic = None;
      trace = None;
      obs = None;
      fault = None;
    }

  let with_workload workload t = { t with workload }
  let with_workload_spec spec t = { t with workload = Workload.Scenario.of_spec spec }
  let with_load offered_mops t = { t with offered_mops }
  let with_cfg cfg t = { t with cfg }
  let with_seed seed t = { t with seed }
  let with_dynamic d t = { t with dynamic = Some d }
  let with_trace tr t = { t with trace = Some tr }
  let with_obs o t = { t with obs = Some o }
  let with_fault f t = { t with fault = Some f }
end

let with_scale scale (s : Spec.t) =
  { s with Spec.cfg = config_of_scale ~base:s.Spec.cfg scale }

(* How many requests a timed capture holds for a [replay] scenario: about
   one run's worth at the offered rate, clamped so captures stay cheap.
   The replay loops (re-based each lap) if the run outlasts it. *)
let capture_n ~offered_mops (cfg : Kvserver.Config.t) =
  let expected = offered_mops *. cfg.Kvserver.Config.duration_us in
  max 1024 (min 262_144 (int_of_float expected))

(* A supplied trace must fit the run: the engine indexes the dataset by
   the trace's key ids, and it cannot honour a second arrival process or
   a second request source next to the trace's own. *)
let check_trace (s : Spec.t) dataset trace =
  let refuse msg = invalid_arg ("Experiment.run_spec: " ^ msg) in
  let sc = s.Spec.workload in
  if Workload.Trace.length trace = 0 then refuse "empty trace";
  let max_key =
    Array.fold_left
      (fun acc (r : Workload.Generator.request) -> max acc r.Workload.Generator.key_id)
      (-1) (Workload.Trace.requests trace)
  in
  let n_keys = Workload.Dataset.n_keys dataset in
  if max_key >= n_keys then
    refuse
      (Printf.sprintf "trace key id %d is outside the dataset (n_keys = %d)" max_key
         n_keys);
  if sc.Workload.Scenario.replay then
    refuse "a trace and a replay scenario both supply the requests";
  if Option.is_some s.Spec.dynamic then
    refuse "a dynamic phase plan varies the generator, which the trace replaces";
  match sc.Workload.Scenario.arrival with
  | Workload.Arrival.Poisson -> ()
  | _ when Workload.Trace.timed trace ->
      refuse "a timed trace carries its own arrivals; the scenario's are not Poisson"
  | _ -> ()

(* The engine of one point, ready to run. *)
let engine_of_spec (s : Spec.t) =
  let sc = s.Spec.workload in
  (match Workload.Scenario.validate sc with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Experiment.run_spec: " ^ msg));
  let dataset = dataset_for sc.Workload.Scenario.spec in
  Option.iter (check_trace s dataset) s.Spec.trace;
  let gen = Workload.Scenario.generator ~seed:(s.Spec.seed + 101) sc dataset in
  let cfg =
    { s.Spec.cfg with Kvserver.Config.seed = s.Spec.cfg.Kvserver.Config.seed + s.Spec.seed }
  in
  (* Scenario extras.  Every one of these is [None] for a plain scenario,
     so runs through the original spec path stay byte-identical. *)
  let pacing =
    match sc.Workload.Scenario.arrival with
    | Workload.Arrival.Poisson -> None
    | arrival ->
        let base = s.Spec.offered_mops in
        Some
          {
            Kvserver.Engine.rate_at = (fun now -> Workload.Arrival.rate_at arrival ~base now);
            next_change = (fun now -> Workload.Arrival.next_change arrival ~base now);
          }
  in
  let residency =
    match (sc.Workload.Scenario.ttl_us, sc.Workload.Scenario.mem_fraction) with
    | None, None -> None
    | ttl_us, mem_fraction ->
        let budget_bytes =
          Option.map
            (fun f ->
              max 1
                (int_of_float
                   (f *. float_of_int (Workload.Dataset.total_value_bytes dataset))))
            mem_fraction
        in
        let res =
          Kvserver.Residency.create ?ttl_us ?budget_bytes
            ?sweep_us:sc.Workload.Scenario.sweep_us dataset
        in
        ignore (Kvserver.Residency.populate res ~now:0.0);
        Some res
  in
  (* Where the requests come from.  The engine never draws from [gen]
     when it replays a trace, so a replayed trace sees the same engine
     streams as a generated run. *)
  let intake =
    match s.Spec.trace with
    | Some trace ->
        {
          Kvserver.Engine.content = Replayed trace;
          clock = (if Workload.Trace.timed trace then Recorded else Poisson pacing);
        }
    | None when sc.Workload.Scenario.replay ->
        if Option.is_some s.Spec.dynamic then
          invalid_arg
            "Experiment.run_spec: a dynamic phase plan varies the generator, which the \
             replay scenario's timed trace replaces";
        (* The capture carries the scenario's arrival process. *)
        {
          content =
            Replayed
              (Workload.Scenario.capture ~seed:(s.Spec.seed + 211) sc dataset
                 ~rate_mops:s.Spec.offered_mops
                 ~n:(capture_n ~offered_mops:s.Spec.offered_mops cfg));
          clock = Recorded;
        }
    | None ->
        {
          content = Generated { dynamic = s.Spec.dynamic; keep = None };
          clock = Poisson pacing;
        }
  in
  Kvserver.Engine.create ~intake ?residency ?obs:s.Spec.obs ?fault:s.Spec.fault cfg gen
    ~offered_mops:s.Spec.offered_mops

let run_spec (s : Spec.t) =
  Kvserver.Engine.run (engine_of_spec s) (Kvserver.Design.make s.Spec.design)

let run_spec_raw (s : Spec.t) =
  let eng = engine_of_spec s in
  let metrics = Kvserver.Engine.run eng (Kvserver.Design.make s.Spec.design) in
  (metrics, Kvserver.Engine.raw_latencies eng)

let better (a : Kvserver.Metrics.t) (b : Kvserver.Metrics.t) =
  if a.Kvserver.Metrics.stable <> b.Kvserver.Metrics.stable then
    if a.Kvserver.Metrics.stable then a else b
  else if
    abs_float (a.Kvserver.Metrics.throughput_mops -. b.Kvserver.Metrics.throughput_mops)
    > 0.02 *. Float.max a.Kvserver.Metrics.throughput_mops 0.01
  then
    if a.Kvserver.Metrics.throughput_mops > b.Kvserver.Metrics.throughput_mops then a
    else b
  else if a.Kvserver.Metrics.p99_us <= b.Kvserver.Metrics.p99_us then a
  else b

let run_best_handoff (s : Spec.t) =
  let cfg = s.Spec.cfg in
  [ 1; 2; 3 ]
  |> List.filter (fun h -> h < cfg.Kvserver.Config.cores)
  |> Par.map_list (fun handoff_cores ->
         run_spec (Spec.with_cfg { cfg with Kvserver.Config.handoff_cores } s))
  |> function
  | [] -> invalid_arg "Experiment.sweep: no valid handoff configuration"
  | first :: rest -> List.fold_left better first rest

let sweep ?(cfg = config_of_scale full_scale) ?(sho_best = false) design spec
    ~loads_mops =
  let base = Spec.make design |> Spec.with_workload_spec spec |> Spec.with_cfg cfg in
  let search_handoff =
    sho_best && Kvserver.Design.supports design Kvserver.Design.Handoff_cores
  in
  Par.map_list
    (fun load ->
      let s = Spec.with_load load base in
      (load, if search_handoff then run_best_handoff s else run_spec s))
    loads_mops
