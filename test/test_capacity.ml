(* Tests for the closed-form capacity model — including cross-validation
   against the discrete-event simulator, the strongest evidence that both
   are right. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let spec = Workload.Spec.default
let cost = Kvserver.Cost_model.default

let test_profile_calibration () =
  let p = Queueing.Capacity.profile spec cost in
  (* DESIGN.md §3 calibration targets. *)
  if p.Queueing.Capacity.mean_cpu_us < 0.8 || p.Queueing.Capacity.mean_cpu_us > 1.6 then
    Alcotest.failf "mean cpu %.2f" p.Queueing.Capacity.mean_cpu_us;
  if
    p.Queueing.Capacity.mean_service_latency_us < 4.0
    || p.Queueing.Capacity.mean_service_latency_us > 6.5
  then
    Alcotest.failf "mean service latency %.2f (paper: ~5us)"
      p.Queueing.Capacity.mean_service_latency_us;
  (* 95:5 GET:PUT: most wire bytes go out, not in. *)
  check bool "tx dominates rx" true
    (p.Queueing.Capacity.mean_tx_bytes > 3.0 *. p.Queueing.Capacity.mean_rx_bytes)

let test_nic_bound_matches_paper_peak () =
  let peak = Queueing.Capacity.nic_bound_mops spec cost ~gbps:40.0 in
  (* The paper's platform peaks at 6.2 Mops, NIC-bound. *)
  if peak < 5.6 || peak > 7.0 then Alcotest.failf "nic bound %.2f Mops" peak

let test_cpu_bound_above_nic_bound () =
  let nic = Queueing.Capacity.nic_bound_mops spec cost ~gbps:40.0 in
  let cpu = Queueing.Capacity.cpu_bound_mops spec cost ~cores:8 in
  check bool "NIC binds first on the default workload" true (nic < cpu)

let test_write_intensive_flips_bottleneck () =
  let wi = Workload.Spec.write_intensive in
  let nic = Queueing.Capacity.nic_bound_mops wi cost ~gbps:40.0 in
  let cpu = Queueing.Capacity.cpu_bound_mops wi cost ~cores:8 in
  (* §6.2: "A write-intensive workload shifts the bottleneck from the NIC
     to the CPU". *)
  check bool "CPU binds on 50:50" true (cpu < nic)

let test_predicted_peak_matches_simulator () =
  (* The simulator's measured peak must sit within ~12% of the closed-form
     prediction. *)
  let predicted = Queueing.Capacity.predicted_peak_mops spec cost ~cores:8 ~gbps:40.0 in
  let cfg = Minos.Experiment.config_of_scale Minos.Experiment.quick_scale in
  let measured =
    List.fold_left
      (fun acc load ->
        let m =
          Minos.Experiment.Spec.make Kvserver.Design.hkh
          |> Minos.Experiment.Spec.with_workload_spec spec
          |> Minos.Experiment.Spec.with_cfg cfg
          |> Minos.Experiment.Spec.with_load load
          |> Minos.Experiment.run_spec
        in
        if m.Kvserver.Metrics.stable then Float.max acc m.Kvserver.Metrics.throughput_mops
        else acc)
      0.0
      [ 5.5; 6.0; 6.4 ]
  in
  let err = abs_float (measured -. predicted) /. predicted in
  if err > 0.12 then
    Alcotest.failf "predicted %.2f vs measured %.2f (%.0f%%)" predicted measured
      (100.0 *. err)

let test_hol_exposure_explains_hkh () =
  (* At 1 Mops on the default workload the exposure already exceeds 1%, so
     HKH's p99 reflects large service times — the paper's §2.2 point. *)
  let e1 = Queueing.Capacity.hol_exposure spec cost ~cores:8 ~offered_mops:1.0 in
  check bool "exposure > 1% at 1 Mops" true (e1 > 0.01);
  let e0 =
    Queueing.Capacity.hol_exposure
      (Workload.Spec.with_p_large spec 0.0)
      cost ~cores:8 ~offered_mops:1.0
  in
  check bool "no larges, no exposure" true (e0 = 0.0);
  (* Exposure scales with load. *)
  let e5 = Queueing.Capacity.hol_exposure spec cost ~cores:8 ~offered_mops:5.0 in
  check bool "monotone in load" true (e5 > 4.0 *. e1)

let test_expected_large_cores_matches_control () =
  check int "default -> 1 large core" 1
    (Queueing.Capacity.expected_large_cores spec cost ~cores:8 ~percentile:0.99);
  check int "pL=0.0625 -> standby" 0
    (Queueing.Capacity.expected_large_cores
       (Workload.Spec.with_p_large spec 0.0625)
       cost ~cores:8 ~percentile:0.99);
  let heavy =
    Queueing.Capacity.expected_large_cores
      (Workload.Spec.with_p_large spec 0.75)
      cost ~cores:8 ~percentile:0.99
  in
  if heavy < 3 || heavy > 5 then Alcotest.failf "pL=0.75 -> %d large cores" heavy

let test_expected_large_cores_matches_simulator () =
  (* The analytic allocation and the live control loop agree. *)
  List.iter
    (fun p_large ->
      let s = Workload.Spec.with_p_large spec p_large in
      let analytic =
        Queueing.Capacity.expected_large_cores s cost ~cores:8 ~percentile:0.99
      in
      let cfg = Minos.Experiment.config_of_scale Minos.Experiment.quick_scale in
      let m =
        Minos.Experiment.Spec.make Kvserver.Design.minos
        |> Minos.Experiment.Spec.with_workload_spec s
        |> Minos.Experiment.Spec.with_cfg cfg
        |> Minos.Experiment.Spec.with_load 2.0
        |> Minos.Experiment.run_spec
      in
      (* Standby mode reports 1 when engaged; treat analytic 0 as <=1. *)
      let sim = m.Kvserver.Metrics.final_large_cores in
      if analytic = 0 then begin
        if sim > 1 then Alcotest.failf "pL=%.4f: sim %d vs standby" p_large sim
      end
      else if abs (sim - analytic) > 1 then
        Alcotest.failf "pL=%.4f: sim %d vs analytic %d" p_large sim analytic)
    [ 0.125; 0.25; 0.75 ]

let test_minos_small_pool_bound () =
  let bound = Queueing.Capacity.minos_small_pool_bound_mops spec cost ~cores:8 ~n_small:7 in
  (* Seven small cores at ~1.07us + profiling: ~6.2-6.8 Mops. *)
  if bound < 5.0 || bound > 8.0 then Alcotest.failf "small pool bound %.2f" bound

let () =
  Alcotest.run "capacity"
    [
      ( "closed-form",
        [
          Alcotest.test_case "profile calibration" `Quick test_profile_calibration;
          Alcotest.test_case "nic bound = paper peak" `Quick
            test_nic_bound_matches_paper_peak;
          Alcotest.test_case "bottleneck order (95:5)" `Quick test_cpu_bound_above_nic_bound;
          Alcotest.test_case "bottleneck flips (50:50)" `Quick
            test_write_intensive_flips_bottleneck;
          Alcotest.test_case "hol exposure" `Quick test_hol_exposure_explains_hkh;
          Alcotest.test_case "expected large cores" `Quick
            test_expected_large_cores_matches_control;
          Alcotest.test_case "small pool bound" `Quick test_minos_small_pool_bound;
        ] );
      ( "vs simulator",
        [
          Alcotest.test_case "peak throughput" `Slow test_predicted_peak_matches_simulator;
          Alcotest.test_case "large-core allocation" `Slow
            test_expected_large_cores_matches_simulator;
        ] );
    ]
