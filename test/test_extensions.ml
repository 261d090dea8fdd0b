(* Tests for the extension features: trace capture/replay and offline
   threshold analysis (§6.2 workflow), and multi-NUMA operation (§3). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let small_spec =
  { Workload.Spec.default with Workload.Spec.n_keys = 20_000; n_large_keys = 100 }

let point load =
  Minos.Experiment.Spec.make Kvserver.Design.minos
  |> Minos.Experiment.Spec.with_workload_spec small_spec
  |> Minos.Experiment.with_scale Minos.Experiment.quick_scale
  |> Minos.Experiment.Spec.with_load load

let make_trace n =
  let dataset = Workload.Dataset.create small_spec in
  let gen = Workload.Generator.create dataset in
  Workload.Trace.capture gen ~n

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_capture () =
  let t = make_trace 1000 in
  check int "length" 1000 (Workload.Trace.length t);
  check bool "untimed" false (Workload.Trace.timed t);
  Array.iter
    (fun (r : Workload.Generator.request) ->
      if r.Workload.Generator.item_size < 1 then Alcotest.fail "bad size")
    (Workload.Trace.requests t)

let test_trace_save_load_roundtrip () =
  let t = make_trace 5000 in
  let path = Filename.temp_file "minos_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Trace.save path t;
      let t' = Workload.Trace.load path in
      check int "count preserved" (Workload.Trace.length t) (Workload.Trace.length t');
      let reqs' = Workload.Trace.requests t' in
      Array.iteri
        (fun i (r : Workload.Generator.request) ->
          let r' = reqs'.(i) in
          if
            r.Workload.Generator.op <> r'.Workload.Generator.op
            || r.Workload.Generator.key_id <> r'.Workload.Generator.key_id
            || r.Workload.Generator.item_size <> r'.Workload.Generator.item_size
            || r.Workload.Generator.is_large <> r'.Workload.Generator.is_large
          then Alcotest.failf "record %d differs" i)
        (Workload.Trace.requests t))

let test_trace_load_rejects_garbage () =
  let path = Filename.temp_file "minos_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOT A TRACE FILE AT ALL";
      close_out oc;
      match Workload.Trace.load path with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure _ -> ())

let test_trace_offline_threshold_matches_online () =
  (* The §6.2 workflow: the threshold derived offline from a trace must
     agree with what the online controller converges to. *)
  let t = make_trace 100_000 in
  let offline = Workload.Trace.size_percentile t 0.99 in
  let m = Minos.Experiment.run_spec (point 2.0) in
  let online = m.Kvserver.Metrics.final_threshold in
  (* The online value is a log-bucket upper bound; allow one bucket plus
     sampling noise. *)
  if abs_float (online -. offline) /. offline > 0.2 then
    Alcotest.failf "offline %.0f vs online %.0f" offline online

let test_trace_stats () =
  let t = make_trace 200_000 in
  let pl = Workload.Trace.percent_large t in
  if abs_float (pl -. 0.125) > 0.06 then Alcotest.failf "percent_large %.3f" pl;
  let mean = Workload.Trace.mean_item_size t in
  (* ~427B small mean + large contribution. *)
  if mean < 350.0 || mean > 900.0 then Alcotest.failf "mean item size %.0f" mean

let test_trace_driven_simulation () =
  (* Replaying a captured trace through the engine gives the same picture
     as the generator that produced it. *)
  let trace = make_trace 200_000 in
  let replayed =
    Minos.Experiment.run_spec (Minos.Experiment.Spec.with_trace trace (point 2.0))
  in
  let synthetic = Minos.Experiment.run_spec (point 2.0) in
  Alcotest.(check bool) "stable" true replayed.Kvserver.Metrics.stable;
  let rel a b = abs_float (a -. b) /. b in
  if rel replayed.Kvserver.Metrics.p50_us synthetic.Kvserver.Metrics.p50_us > 0.25 then
    Alcotest.failf "replayed p50 %.1f vs synthetic %.1f"
      replayed.Kvserver.Metrics.p50_us synthetic.Kvserver.Metrics.p50_us;
  Alcotest.(check int)
    "same large-core allocation" synthetic.Kvserver.Metrics.final_large_cores
    replayed.Kvserver.Metrics.final_large_cores

(* ------------------------------------------------------------------ *)
(* NUMA *)

let test_numa_domains_scale_throughput () =
  let run offered_mops =
    {
      Minos.Run.default with
      Minos.Run.scale = Minos.Experiment.quick_scale;
      workload = Workload.Scenario.of_spec small_spec;
      offered_mops = Some offered_mops;
    }
  in
  let one = Minos.Numa.run ~domains:1 (run 3.0) in
  let two = Minos.Numa.run ~domains:2 (run 6.0) in
  check bool "single stable" true one.Minos.Numa.stable;
  check bool "dual stable at 2x load" true two.Minos.Numa.stable;
  if two.Minos.Numa.total_throughput_mops < 1.9 *. one.Minos.Numa.total_throughput_mops
  then
    Alcotest.failf "2 domains: %.2f vs 1 domain: %.2f"
      two.Minos.Numa.total_throughput_mops one.Minos.Numa.total_throughput_mops;
  (* Latency distribution is per-domain, so p99 stays in the same band. *)
  if two.Minos.Numa.p99_us > 2.0 *. one.Minos.Numa.p99_us then
    Alcotest.failf "p99 degraded: %.1f vs %.1f" two.Minos.Numa.p99_us one.Minos.Numa.p99_us

let test_numa_validation () =
  Alcotest.check_raises "domains" (Invalid_argument "Numa.run: need at least one domain")
    (fun () -> ignore (Minos.Numa.run ~domains:0 Minos.Run.default))

let () =
  Alcotest.run "extensions"
    [
      ( "trace",
        [
          Alcotest.test_case "capture" `Quick test_trace_capture;
          Alcotest.test_case "save/load roundtrip" `Quick test_trace_save_load_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_trace_load_rejects_garbage;
          Alcotest.test_case "offline threshold" `Slow
            test_trace_offline_threshold_matches_online;
          Alcotest.test_case "stats" `Quick test_trace_stats;
          Alcotest.test_case "trace-driven simulation" `Slow test_trace_driven_simulation;
        ] );
      ( "numa",
        [
          Alcotest.test_case "throughput scales" `Slow test_numa_domains_scale_throughput;
          Alcotest.test_case "validation" `Quick test_numa_validation;
        ] );
    ]
