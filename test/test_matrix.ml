(* Matrix test: every server design against every Table 1 workload
   profile, at a moderate load.  Asserts the invariants that must hold
   everywhere: request conservation, stability, sane percentile ordering,
   and Minos' tail dominance over HKH. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let cfg =
  {
    (Minos.Experiment.config_of_scale Minos.Experiment.quick_scale) with
    Kvserver.Config.duration_us = 80_000.0;
    warmup_us = 25_000.0;
    epoch_us = 10_000.0;
  }

let profiles =
  List.map
    (fun (p_large, s_large_max) ->
      { Workload.Spec.default with Workload.Spec.p_large; s_large_max })
    Workload.Spec.table1_profiles

(* A load every profile can sustain (pL = 0.75 is NIC-bound near 2.1). *)
let offered_mops = 1.5

let run design spec =
  Minos.Experiment.Spec.make design
  |> Minos.Experiment.Spec.with_workload_spec spec
  |> Minos.Experiment.Spec.with_cfg cfg
  |> Minos.Experiment.Spec.with_load offered_mops
  |> Minos.Experiment.run_spec

let test_invariants_for design () =
  List.iter
    (fun spec ->
      let m = run design spec in
      let label =
        Printf.sprintf "%s pL=%.4f sL=%d" m.Kvserver.Metrics.design
          spec.Workload.Spec.p_large spec.Workload.Spec.s_large_max
      in
      check bool (label ^ " stable") true m.Kvserver.Metrics.stable;
      let processed = Array.fold_left ( + ) 0 m.Kvserver.Metrics.per_core_ops in
      check int (label ^ " conservation") m.Kvserver.Metrics.issued
        (processed + m.Kvserver.Metrics.in_flight_end);
      check bool (label ^ " ordering") true
        (m.Kvserver.Metrics.p50_us <= m.Kvserver.Metrics.p99_us
        && m.Kvserver.Metrics.p99_us <= m.Kvserver.Metrics.p999_us);
      check bool (label ^ " floor") true (m.Kvserver.Metrics.p50_us > 4.0);
      if abs_float (m.Kvserver.Metrics.throughput_mops -. offered_mops) > 0.15 then
        Alcotest.failf "%s throughput %.2f" label m.Kvserver.Metrics.throughput_mops)
    profiles

let test_minos_dominates_everywhere () =
  (* On every profile, Minos' p99 beats HKH's at this load. *)
  List.iter
    (fun spec ->
      let minos = run Kvserver.Design.minos spec in
      let hkh = run Kvserver.Design.hkh spec in
      if not (minos.Kvserver.Metrics.p99_us < hkh.Kvserver.Metrics.p99_us) then
        Alcotest.failf "pL=%.4f sL=%d: Minos %.1f vs HKH %.1f"
          spec.Workload.Spec.p_large spec.Workload.Spec.s_large_max
          minos.Kvserver.Metrics.p99_us hkh.Kvserver.Metrics.p99_us)
    profiles

let test_minos_allocation_scales_with_pl () =
  (* More large traffic -> at least as many large cores. *)
  let large_cores p =
    (run Kvserver.Design.minos (Workload.Spec.with_p_large Workload.Spec.default p))
      .Kvserver.Metrics.final_large_cores
  in
  let l0 = large_cores 0.0625
  and l1 = large_cores 0.25
  and l2 = large_cores 0.75 in
  check bool "monotone allocation" true (l0 <= l1 && l1 <= l2);
  check bool "heavy traffic gets >= 2 cores" true (l2 >= 2)

let () =
  Alcotest.run "matrix"
    [
      ( "invariants",
        List.map
          (fun design ->
            Alcotest.test_case (Minos.Experiment.design_name design) `Slow
              (test_invariants_for design))
          Minos.Experiment.all_designs );
      ( "cross-design",
        [
          Alcotest.test_case "minos dominates everywhere" `Slow
            test_minos_dominates_everywhere;
          Alcotest.test_case "allocation scales with pL" `Slow
            test_minos_allocation_scales_with_pl;
        ] );
    ]
