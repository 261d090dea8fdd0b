type design = Kvserver.Design.t

let all_designs = Kvserver.Design.all ()

let design_name = Kvserver.Design.name

let design_of_name = Kvserver.Design.find

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
   build would waste hundreds of milliseconds and break sharing). *)
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
          let d = Workload.Dataset.create spec in
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
    store : Kvstore.Store.t option;
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
      store = None;
      obs = None;
      fault = None;
    }

  let with_design design t = { t with design }
  let with_workload workload t = { t with workload }
  let with_workload_spec spec t = { t with workload = Workload.Scenario.of_spec spec }
  let with_load offered_mops t = { t with offered_mops }
  let with_cfg cfg t = { t with cfg }
  let with_seed seed t = { t with seed }
  let with_dynamic d t = { t with dynamic = Some d }
  let with_store s t = { t with store = Some s }
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

let run_spec_raw (s : Spec.t) =
  let sc = s.Spec.workload in
  (match Workload.Scenario.validate sc with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Experiment.run_spec: " ^ msg));
  let dataset = dataset_for sc.Workload.Scenario.spec in
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
        let res = Kvserver.Residency.create ?ttl_us ?budget_bytes dataset in
        ignore (Kvserver.Residency.populate res ~now:0.0);
        Some res
  in
  let sweep_us =
    match residency with None -> None | Some _ -> sc.Workload.Scenario.sweep_us
  in
  let timed =
    if not sc.Workload.Scenario.replay then None
    else
      Some
        (Workload.Scenario.capture ~seed:(s.Spec.seed + 211) sc dataset
           ~rate_mops:s.Spec.offered_mops
           ~n:(capture_n ~offered_mops:s.Spec.offered_mops cfg))
  in
  let eng =
    Kvserver.Engine.create ?dynamic:s.Spec.dynamic ?store:s.Spec.store ?pacing ?timed
      ?residency ?sweep_us ?obs:s.Spec.obs ?fault:s.Spec.fault cfg gen
      ~offered_mops:s.Spec.offered_mops
  in
  let metrics = Kvserver.Engine.run eng (Kvserver.Design.make s.Spec.design) in
  (metrics, Kvserver.Engine.raw_latencies eng)

let run_spec s = fst (run_spec_raw s)

let spec_of ?cfg ?dynamic ?store ?obs ?fault ?(seed = 1) design workload ~offered_mops =
  {
    Spec.design;
    workload = Workload.Scenario.of_spec workload;
    offered_mops;
    cfg = (match cfg with Some c -> c | None -> config_of_scale full_scale);
    seed;
    dynamic;
    store;
    obs;
    fault;
  }

let run_raw ?cfg ?dynamic ?store ?obs ?fault ?seed design spec ~offered_mops =
  run_spec_raw (spec_of ?cfg ?dynamic ?store ?obs ?fault ?seed design spec ~offered_mops)

let run ?cfg ?dynamic ?store ?obs ?fault ?seed design spec ~offered_mops =
  fst (run_raw ?cfg ?dynamic ?store ?obs ?fault ?seed design spec ~offered_mops)

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

let run_best_handoff ?cfg ?seed design spec ~offered_mops =
  let base = match cfg with Some c -> c | None -> config_of_scale full_scale in
  [ 1; 2; 3 ]
  |> List.filter (fun h -> h < base.Kvserver.Config.cores)
  |> Par.map_list (fun handoff_cores ->
         run ~cfg:{ base with Kvserver.Config.handoff_cores } ?seed design spec
           ~offered_mops)
  |> function
  | [] -> invalid_arg "run_sho_best: no valid handoff configuration"
  | first :: rest -> List.fold_left better first rest

let run_sho_best ?cfg ?seed spec ~offered_mops =
  run_best_handoff ?cfg ?seed Kvserver.Design.sho spec ~offered_mops

let run_trace ?cfg ?(seed = 1) design trace ~spec ~offered_mops =
  if Workload.Trace.length trace = 0 then invalid_arg "run_trace: empty trace";
  let cfg = match cfg with Some c -> c | None -> config_of_scale full_scale in
  let cfg = { cfg with Kvserver.Config.seed = cfg.Kvserver.Config.seed + seed } in
  let gen = Workload.Generator.create ~seed:(seed + 101) (dataset_for spec) in
  let eng =
    if Workload.Trace.timed trace then
      (* A timed trace carries its own arrival process: replay it at the
         recorded pacing (looping with rebasing if the run outlasts it)
         instead of drawing Poisson arrivals at [offered_mops]. *)
      Kvserver.Engine.create ~timed:trace cfg gen ~offered_mops
    else
      let next = Workload.Trace.replayer ~loop:true trace in
      let source () = Option.get (next ()) in
      Kvserver.Engine.create ~source cfg gen ~offered_mops
  in
  Kvserver.Engine.run eng (Kvserver.Design.make design)

type replicated = {
  runs : Kvserver.Metrics.t list;
  p99_mean : float;
  p99_stddev : float;
  throughput_mean : float;
}

let run_replicated ?cfg ?(seeds = [ 1; 2; 3 ]) design spec ~offered_mops =
  if seeds = [] then invalid_arg "run_replicated: need at least one seed";
  let runs = Par.map_list (fun seed -> run ?cfg ~seed design spec ~offered_mops) seeds in
  let p99s = Stats.Summary.create () and tput = Stats.Summary.create () in
  List.iter
    (fun (m : Kvserver.Metrics.t) ->
      if not (Float.is_nan m.Kvserver.Metrics.p99_us) then
        Stats.Summary.add p99s m.Kvserver.Metrics.p99_us;
      Stats.Summary.add tput m.Kvserver.Metrics.throughput_mops)
    runs;
  {
    runs;
    p99_mean = Stats.Summary.mean p99s;
    p99_stddev = Stats.Summary.stddev p99s;
    throughput_mean = Stats.Summary.mean tput;
  }

let sweep ?cfg ?(sho_best = false) design spec ~loads_mops =
  let search_handoff =
    sho_best && Kvserver.Design.supports design Kvserver.Design.Handoff_cores
  in
  Par.map_list
    (fun load ->
      let m =
        if search_handoff then run_best_handoff ?cfg design spec ~offered_mops:load
        else run ?cfg design spec ~offered_mops:load
      in
      (load, m))
    loads_mops
