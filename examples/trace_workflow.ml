(* The §6.2 production workflow, end to end:

   1. capture a trace of the live workload;
   2. analyze it offline (the static size threshold = p99 of item sizes);
   3. run Minos with the static threshold (no per-request profiling) and
      compare against the fully adaptive control loop;
   4. replay the trace itself through the simulator (trace-driven runs).

   Run with: dune exec examples/trace_workflow.exe
*)

let () =
  let spec = Workload.Spec.default in
  let dataset = Minos.Experiment.dataset_for spec in
  let gen = Workload.Generator.create ~seed:2025 dataset in

  (* 1. capture + persist *)
  let trace = Workload.Trace.capture gen ~n:500_000 in
  let path = Filename.temp_file "minos_trace" ".bin" in
  Workload.Trace.save path trace;
  Printf.printf "captured %d requests -> %s (%d bytes)\n"
    (Workload.Trace.length trace) path
    (let st = open_in_bin path in
     let n = in_channel_length st in
     close_in st;
     n);

  (* 2. offline analysis *)
  let threshold = Workload.Trace.size_percentile trace 0.99 in
  Printf.printf "offline analysis: %.3f%% large requests, mean item %.0f B\n"
    (Workload.Trace.percent_large trace)
    (Workload.Trace.mean_item_size trace);
  Printf.printf "static threshold = p99 of item sizes = %.0f B\n\n" threshold;

  (* 3. adaptive vs static at a demanding load *)
  let scale = Minos.Experiment.quick_scale in
  let base = Minos.Experiment.config_of_scale scale in
  let point =
    Minos.Experiment.Spec.make Kvserver.Design.minos
    |> Minos.Experiment.Spec.with_workload_spec spec
    |> Minos.Experiment.Spec.with_cfg base
    |> Minos.Experiment.Spec.with_load 5.0
  in
  let show label cfg =
    let m = Minos.Experiment.run_spec (Minos.Experiment.Spec.with_cfg cfg point) in
    Printf.printf "%-22s p50=%5.1fus p99=%6.1fus tput=%.2fM threshold=%.0fB\n" label
      m.Kvserver.Metrics.p50_us m.Kvserver.Metrics.p99_us
      m.Kvserver.Metrics.throughput_mops m.Kvserver.Metrics.final_threshold
  in
  show "adaptive control loop" base;
  show "static threshold"
    { base with Kvserver.Config.static_threshold = Some threshold };

  (* 4. trace-driven replay (same requests, not resampled) *)
  let m =
    Minos.Experiment.run_spec
      (Minos.Experiment.Spec.with_trace (Workload.Trace.load path) point)
  in
  Printf.printf "%-22s p50=%5.1fus p99=%6.1fus tput=%.2fM threshold=%.0fB\n"
    "trace-driven replay" m.Kvserver.Metrics.p50_us m.Kvserver.Metrics.p99_us
    m.Kvserver.Metrics.throughput_mops m.Kvserver.Metrics.final_threshold;
  Sys.remove path
