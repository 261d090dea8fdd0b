type result = {
  per_domain : Kvserver.Metrics.t list;
  total_throughput_mops : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  stable : bool;
}

let run ~domains (r : Run.t) =
  if domains < 1 then invalid_arg "Numa.run: need at least one domain";
  let cfg = Run.config r in
  let spec = Run.flat r in
  let seed = r.Run.seed in
  let offered_mops = Option.value r.Run.offered_mops ~default:3.0 in
  (* Each domain owns a disjoint key-space slice: same size distribution,
     1/domains of the keys and of the large keys. *)
  let domain_spec =
    {
      spec with
      Workload.Spec.n_keys = max 2 (spec.Workload.Spec.n_keys / domains);
      n_large_keys = max 1 (spec.Workload.Spec.n_large_keys / domains);
    }
  in
  let per_rate = offered_mops /. float_of_int domains in
  let runs =
    List.init domains (fun d ->
        let dataset = Experiment.dataset_for domain_spec in
        let gen =
          Workload.Generator.create
            ~seed:(seed + 101 + (31 * d))
            ~p_large:spec.Workload.Spec.p_large
            ~get_ratio:spec.Workload.Spec.get_ratio dataset
        in
        let cfg = { cfg with Kvserver.Config.seed = cfg.Kvserver.Config.seed + d } in
        let eng = Kvserver.Engine.create cfg gen ~offered_mops:per_rate in
        let metrics = Kvserver.Engine.run eng (Experiment.maker r.Run.design) in
        (metrics, Kvserver.Engine.raw_latencies eng))
  in
  let per_domain = List.map fst runs in
  let all = Array.of_list (List.map snd runs) in
  let q p =
    if Array.for_all (fun vec -> Stats.Float_vec.length vec = 0) all then Float.nan
    else Stats.Quantile.of_vecs all p
  in
  {
    per_domain;
    total_throughput_mops =
      List.fold_left (fun acc m -> acc +. m.Kvserver.Metrics.throughput_mops) 0.0 per_domain;
    p50_us = q 0.5;
    p99_us = q 0.99;
    p999_us = q 0.999;
    stable = List.for_all (fun m -> m.Kvserver.Metrics.stable) per_domain;
  }
