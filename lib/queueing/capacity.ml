type op_profile = {
  mean_cpu_us : float;
  mean_tx_bytes : float;
  mean_rx_bytes : float;
  mean_service_latency_us : float;
}

(* Numeric expectation of [f size] under the spec's trimodal item-size
   distribution.  Tiny and small classes are summed exactly over their
   integer supports; the large class is integrated on a fine grid. *)
let expect_size (spec : Workload.Spec.t) f =
  let mean_uniform_int lo hi =
    let acc = ref 0.0 in
    for s = lo to hi do
      acc := !acc +. f s
    done;
    !acc /. float_of_int (hi - lo + 1)
  in
  let mean_uniform_grid lo hi =
    let steps = 4096 in
    let acc = ref 0.0 in
    for i = 0 to steps - 1 do
      let s =
        lo + int_of_float (float_of_int (hi - lo) *. (float_of_int i +. 0.5)
                           /. float_of_int steps)
      in
      acc := !acc +. f s
    done;
    !acc /. float_of_int steps
  in
  let tiny = mean_uniform_int Workload.Spec.tiny_min Workload.Spec.tiny_max in
  let small = mean_uniform_int Workload.Spec.small_min Workload.Spec.small_max in
  let large = mean_uniform_grid Workload.Spec.large_min spec.Workload.Spec.s_large_max in
  let pl = spec.Workload.Spec.p_large /. 100.0 in
  let tf = spec.Workload.Spec.tiny_fraction in
  ((1.0 -. pl) *. ((tf *. tiny) +. ((1.0 -. tf) *. small))) +. (pl *. large)

let wire payload = float_of_int (Netsim.Frame.wire_bytes_for_payload payload)

let profile (spec : Workload.Spec.t) (cost : Kvserver.Cost_model.t) =
  let g = spec.Workload.Spec.get_ratio in
  let cpu op s = Kvserver.Cost_model.cpu_time cost op ~item_size:s in
  let mean_cpu_us =
    (g *. expect_size spec (cpu Kvserver.Cost_model.Get))
    +. ((1.0 -. g) *. expect_size spec (cpu Kvserver.Cost_model.Put))
  in
  let mean_tx_bytes =
    (g
    *. expect_size spec (fun s ->
           wire (Kvserver.Cost_model.reply_payload Kvserver.Cost_model.Get ~item_size:s)))
    +. ((1.0 -. g) *. wire Proto.Wire.put_reply_size)
  in
  let mean_rx_bytes =
    (g *. wire (Proto.Wire.get_request_size ~key_len:Kvserver.Cost_model.key_size))
    +. (1.0 -. g)
       *. expect_size spec (fun s ->
              wire
                (Kvserver.Cost_model.request_payload Kvserver.Cost_model.Put ~item_size:s))
  in
  let us_per_byte = 8.0e-3 /. 40.0 in
  let mean_service_latency_us =
    cost.Kvserver.Cost_model.pipeline_latency_us +. mean_cpu_us
    +. (g
       *. expect_size spec (fun s ->
              us_per_byte
              *. wire
                   (Kvserver.Cost_model.reply_payload Kvserver.Cost_model.Get
                      ~item_size:s)))
  in
  { mean_cpu_us; mean_tx_bytes; mean_rx_bytes; mean_service_latency_us }

let nic_bound_mops spec cost ~gbps =
  let p = profile spec cost in
  gbps *. 1.0e9 /. 8.0 /. p.mean_tx_bytes /. 1.0e6

let cpu_bound_mops spec cost ~cores =
  let p = profile spec cost in
  float_of_int cores /. p.mean_cpu_us

(* Mixture CDF of item sizes, for the threshold percentile. *)
let size_quantile (spec : Workload.Spec.t) q =
  let pl = spec.Workload.Spec.p_large /. 100.0 in
  let tf = spec.Workload.Spec.tiny_fraction in
  let uniform_cdf lo hi s =
    if s < float_of_int lo then 0.0
    else if s >= float_of_int hi then 1.0
    else (s -. float_of_int lo) /. float_of_int (hi - lo)
  in
  let cdf s =
    ((1.0 -. pl)
    *. ((tf *. uniform_cdf Workload.Spec.tiny_min Workload.Spec.tiny_max s)
       +. ((1.0 -. tf) *. uniform_cdf Workload.Spec.small_min Workload.Spec.small_max s)))
    +. (pl *. uniform_cdf Workload.Spec.large_min spec.Workload.Spec.s_large_max s)
  in
  let rec bisect lo hi n =
    if n = 0 then 0.5 *. (lo +. hi)
    else begin
      let mid = 0.5 *. (lo +. hi) in
      if cdf mid < q then bisect mid hi (n - 1) else bisect lo mid (n - 1)
    end
  in
  bisect 1.0 (float_of_int spec.Workload.Spec.s_large_max) 60

let expected_large_cores spec cost ~cores ~percentile =
  ignore cost;
  let threshold = size_quantile spec percentile in
  let pkt s =
    Kvserver.Cost_model.request_cost Kvserver.Cost_model.Packets Kvserver.Cost_model.Get
      ~item_size:s
  in
  let small_cost = expect_size spec (fun s -> if float_of_int s <= threshold then pkt s else 0.0) in
  let total_cost = expect_size spec pkt in
  let frac_small = if total_cost > 0.0 then small_cost /. total_cost else 1.0 in
  let n_small =
    int_of_float (ceil (frac_small *. float_of_int cores)) |> max 1 |> min cores
  in
  cores - n_small

let minos_small_pool_bound_mops spec cost ~cores ~n_small =
  if n_small < 1 then invalid_arg "Capacity.minos_small_pool_bound_mops: n_small >= 1";
  ignore cores;
  (* The small pool absorbs the sub-threshold ~99 % of requests, each
     costing its CPU time plus the per-request profiling charge. *)
  let g = spec.Workload.Spec.get_ratio in
  let small_only = { spec with Workload.Spec.p_large = 0.0 } in
  let cpu op s = Kvserver.Cost_model.cpu_time cost op ~item_size:s in
  let mean_small_cpu =
    (g *. expect_size small_only (cpu Kvserver.Cost_model.Get))
    +. ((1.0 -. g) *. expect_size small_only (cpu Kvserver.Cost_model.Put))
    +. cost.Kvserver.Cost_model.profile_us
  in
  float_of_int n_small /. (0.99 *. mean_small_cpu)

let predicted_peak_mops spec cost ~cores ~gbps =
  Float.min (nic_bound_mops spec cost ~gbps) (cpu_bound_mops spec cost ~cores)

let hol_exposure (spec : Workload.Spec.t) cost ~cores ~offered_mops =
  (* Per-core large-service occupancy under keyhash sharding: the chance
     an arrival lands on a core currently serving a large request. *)
  let pl = spec.Workload.Spec.p_large /. 100.0 in
  let large_only_mean_cpu =
    let lo = Workload.Spec.large_min and hi = spec.Workload.Spec.s_large_max in
    let steps = 2048 in
    let acc = ref 0.0 in
    for i = 0 to steps - 1 do
      let s =
        lo + int_of_float (float_of_int (hi - lo) *. (float_of_int i +. 0.5)
                           /. float_of_int steps)
      in
      acc :=
        !acc +. Kvserver.Cost_model.cpu_time cost Kvserver.Cost_model.Get ~item_size:s
    done;
    !acc /. float_of_int steps
  in
  (* offered_mops = ops/µs across all cores; each core receives 1/n of
     the arrivals, so its large-service occupancy is
     (λ/n) · p_l · E[S_large]. *)
  offered_mops /. float_of_int cores *. pl *. large_only_mean_cpu
