(* Integration tests: miniature versions of the paper's experiments,
   asserting the qualitative claims each figure makes.  These use
   [Experiment.quick_scale]; the full-size runs live in bench/. *)

let check = Alcotest.check
let bool = Alcotest.bool

let scale = Minos.Experiment.quick_scale
let cfg = Minos.Experiment.config_of_scale scale

let point ?(cfg = cfg) ?(spec = Workload.Spec.default) design load =
  Minos.Experiment.Spec.make design
  |> Minos.Experiment.Spec.with_workload_spec spec
  |> Minos.Experiment.Spec.with_cfg cfg
  |> Minos.Experiment.Spec.with_load load

let run ?cfg ?spec design load = Minos.Experiment.run_spec (point ?cfg ?spec design load)

(* ------------------------------------------------------------------ *)
(* Figure 3 claims *)

let test_fig3_minos_dominates_tail () =
  (* "Minos does better than HKH at any load, with improvements reaching
     an order of magnitude as soon as the load exceeds 1 Mops." *)
  List.iter
    (fun load ->
      let minos = run Kvserver.Design.minos load in
      let hkh = run Kvserver.Design.hkh load in
      check bool
        (Printf.sprintf "minos < hkh p99 at %.1fM" load)
        true
        (minos.Kvserver.Metrics.p99_us < hkh.Kvserver.Metrics.p99_us))
    [ 1.0; 3.0; 5.0 ];
  let minos = run Kvserver.Design.minos 3.0 in
  let hkh = run Kvserver.Design.hkh 3.0 in
  check bool "order of magnitude at 3 Mops" true
    (10.0 *. minos.Kvserver.Metrics.p99_us < hkh.Kvserver.Metrics.p99_us)

let test_fig3_ws_between () =
  (* Work stealing mitigates HoL at moderate load but degrades toward HKH
     as load grows. *)
  let at load =
    ( (run Kvserver.Design.minos load).Kvserver.Metrics.p99_us,
      (run Kvserver.Design.hkh_ws load).Kvserver.Metrics.p99_us,
      (run Kvserver.Design.hkh load).Kvserver.Metrics.p99_us )
  in
  let m3, w3, h3 = at 3.0 in
  check bool "minos < ws at 3M" true (m3 < w3);
  check bool "ws < hkh at 3M" true (w3 < h3)

let test_fig3_minos_meets_strict_slo_near_peak () =
  (* Minos keeps p99 <= 50us (10x mean service time) deep into the load
     range. *)
  let m = run Kvserver.Design.minos 5.5 in
  check bool "stable" true m.Kvserver.Metrics.stable;
  check bool "p99 within 50us at 5.5 Mops" true (m.Kvserver.Metrics.p99_us <= 50.0)

let test_fig3_peaks () =
  (* All hardware-dispatch systems reach a similar peak; SHO peaks lower
     (software handoff bound). *)
  let peak design =
    let rec highest_stable best = function
      | [] -> best
      | load :: rest ->
          (* SHO at its best handoff core count per load. *)
          let m =
            snd
              (List.hd
                 (Minos.Experiment.sweep ~cfg ~sho_best:true design Workload.Spec.default
                    ~loads_mops:[ load ]))
          in
          if m.Kvserver.Metrics.stable then
            highest_stable (Float.max best m.Kvserver.Metrics.throughput_mops) rest
          else best
    in
    highest_stable 0.0 [ 5.0; 5.5; 6.0; 6.3 ]
  in
  let minos = peak Kvserver.Design.minos in
  let hkh = peak Kvserver.Design.hkh in
  let sho = peak Kvserver.Design.sho in
  check bool "minos within 10% of hkh peak" true (minos >= 0.9 *. hkh);
  check bool "sho below hkh peak" true (sho <= 0.97 *. hkh)

(* ------------------------------------------------------------------ *)
(* Figure 4 claim *)

let test_fig4_large_requests_pay_a_bounded_price () =
  (* Minos penalizes large requests (bounded, ~2x before saturation). *)
  let minos = run Kvserver.Design.minos 4.0 in
  let ws = run Kvserver.Design.hkh_ws 4.0 in
  let ml = minos.Kvserver.Metrics.large_p99_us in
  let wl = ws.Kvserver.Metrics.large_p99_us in
  check bool "minos large p99 finite" true ((not (Float.is_nan ml)) && ml > 0.0);
  (* Penalty factor stays within ~4x of the stealing baseline at this
     moderate load (paper: up to 2x near saturation). *)
  check bool "bounded penalty" true (ml < 4.0 *. wl);
  (* ...and the overall p99 win is much larger than the large-request
     loss. *)
  check bool "trade is worth it" true
    (ws.Kvserver.Metrics.p99_us /. minos.Kvserver.Metrics.p99_us > 2.0)

(* ------------------------------------------------------------------ *)
(* Figure 5 claim *)

let test_fig5_write_intensive () =
  (* Minos keeps its tail advantage on 50:50. *)
  let spec = Workload.Spec.write_intensive in
  let minos = run ~spec Kvserver.Design.minos 4.0 in
  let hkh = run ~spec Kvserver.Design.hkh 4.0 in
  check bool "tail advantage holds under writes" true
    (minos.Kvserver.Metrics.p99_us < hkh.Kvserver.Metrics.p99_us)

(* ------------------------------------------------------------------ *)
(* Figure 6/7 claim (one representative point) *)

let test_fig6_slo_speedup () =
  (* Under the strict 50us SLO, Minos sustains a multiple of HKH's load. *)
  let max_of design =
    (Minos.Slo_search.search
       ~eval:(run design)
       ~slo_p99_us:50.0 ~lo_mops:0.25 ~hi_mops:7.0 ~iters:6)
      .Minos.Slo_search.max_mops
  in
  let minos = max_of Kvserver.Design.minos in
  let hkh = max_of Kvserver.Design.hkh in
  check bool "minos sustains load under slo" true (minos > 3.0);
  check bool "speedup > 2x" true (minos > 2.0 *. hkh)

(* ------------------------------------------------------------------ *)
(* Figure 8 claim *)

let test_fig8_sampling_shifts_bottleneck () =
  let spec = Workload.Spec.with_p_large Workload.Spec.default 0.75 in
  let with_sampling s load =
    run ~cfg:{ cfg with Kvserver.Config.sampling = s } ~spec Kvserver.Design.minos load
  in
  (* At the same offered load, sampling frees NIC bandwidth... *)
  let full = with_sampling 1.0 1.5 in
  let quarter = with_sampling 0.25 1.5 in
  check bool "nic util drops" true
    (quarter.Kvserver.Metrics.nic_tx_utilization
    < 0.5 *. full.Kvserver.Metrics.nic_tx_utilization);
  (* ...which lets the system sustain loads that saturate the full-reply
     configuration. *)
  let full_hi = with_sampling 1.0 3.5 in
  let quarter_hi = with_sampling 0.25 3.5 in
  check bool "sampled sustains higher load" true
    (quarter_hi.Kvserver.Metrics.stable
    && ((not full_hi.Kvserver.Metrics.stable)
       || quarter_hi.Kvserver.Metrics.p99_us < full_hi.Kvserver.Metrics.p99_us))

(* ------------------------------------------------------------------ *)
(* Figure 9 claim *)

let test_fig9_balanced_packets () =
  (* Packets processed per core are roughly uniform across cores, even
     though ops per core differ wildly between small and large cores. *)
  let m = run Kvserver.Design.minos 4.0 in
  let packets = m.Kvserver.Metrics.per_core_packets in
  let total = Array.fold_left ( + ) 0 packets in
  let n = Array.length packets in
  let mean = float_of_int total /. float_of_int n in
  Array.iteri
    (fun i p ->
      let ratio = float_of_int p /. mean in
      if ratio < 0.4 || ratio > 1.8 then
        Alcotest.failf "core %d handles %.2fx the mean packet load" i ratio)
    packets

(* ------------------------------------------------------------------ *)
(* Figure 10 claim *)

let test_fig10_dynamic () =
  let r = Minos.Figures.fig10 ~scale ~rate_mops:2.0 () in
  check bool "has p99 series" true (List.length r.Minos.Figures.minos_p99 > 3);
  (* Minos must beat HKH+WS in the heavy-large middle phases. *)
  let mid lo hi series =
    List.filter (fun (t, _) -> t >= lo && t <= hi) series |> List.map snd
  in
  let total = 7.0 *. scale.Minos.Experiment.phase_us /. 1.0e6 in
  let lo = 0.4 *. total and hi = 0.6 *. total in
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs)) in
  let minos_mid = mean (mid lo hi r.Minos.Figures.minos_p99) in
  let ws_mid = mean (mid lo hi r.Minos.Figures.hkh_ws_p99) in
  check bool "minos wins in heavy phase" true (minos_mid < ws_mid);
  (* The large-core count must rise toward the middle and fall back. *)
  let cores_at t =
    List.fold_left (fun acc (ct, n) -> if ct <= t then n else acc) 0
      r.Minos.Figures.large_cores
  in
  let early = cores_at (0.15 *. total) and middle = cores_at (0.55 *. total) in
  check bool "controller adds large cores in heavy phase" true (middle > early)

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let test_table1_mc_matches_analytic () =
  (* Large requests are ~0.1% of samples, so the byte-share estimate needs
     a big sample to stabilize (625 large draws at 500k samples).  Even
     then the estimate carries irreducible dataset-realization variance:
     the dataset has only 625 large keys whose sizes are drawn once at
     creation, so the realized mean large-item size sits a few percent off
     the analytic expectation for any particular RNG stream (more request
     samples do not shrink this).  Hence the wide tolerance. *)
  List.iter
    (fun (_, _, analytic, mc) ->
      if abs_float (analytic -. mc) > 5.0 then
        Alcotest.failf "analytic %.1f vs measured %.1f" analytic mc)
    (Minos.Figures.table1 ~mc_samples:500_000 ())

(* ------------------------------------------------------------------ *)
(* Figure 1 *)

let test_fig1_span () =
  let data = Minos.Figures.fig1 () in
  let small = List.assoc 64 data and big = List.assoc 1_000_000 data in
  check bool "hundreds of times slower" true (big /. small > 100.0);
  (* Monotone in size. *)
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check bool "monotone" true (monotone data)

(* ------------------------------------------------------------------ *)
(* SLO search unit behavior *)

let synthetic_metrics rate p99 =
  {
    Kvserver.Metrics.design = "synthetic";
    offered_mops = rate;
    issued = 1000;
    completed = 1000;
    throughput_mops = rate;
    mean_us = 0.0;
    p50_us = 0.0;
    p95_us = 0.0;
    p99_us = p99;
    p999_us = 0.0;
    small_p99_us = 0.0;
    large_p99_us = 0.0;
    nic_tx_utilization = 0.0;
    stable = true;
    per_core_ops = [||];
    per_core_packets = [||];
    final_large_cores = 0;
    final_threshold = Float.nan;
    p99_series = [];
    large_core_series = [];
    in_flight_end = 0;
    mean_queue_wait_us = 0.0;
    mean_service_us = 0.0;
    mean_tx_wait_us = 0.0;
    served_total = 1000;
    net_dropped = 0;
    rx_dropped = 0;
    shed_small = 0;
    shed_large = 0;
    expired_misses = 0;
    cancelled = 0;
    lost = 0;
    expired_keys = 0;
    evicted_keys = 0;
  }

let test_slo_search_mechanics () =
  (* A synthetic convex latency curve: p99 = 10 + load^3. *)
  let eval rate = synthetic_metrics rate (10.0 +. (rate ** 3.0)) in
  let r =
    Minos.Slo_search.search ~eval ~slo_p99_us:50.0 ~lo_mops:0.5 ~hi_mops:8.0 ~iters:12
  in
  (* p99 = 50 at load = 40^(1/3) = 3.42. *)
  if abs_float (r.Minos.Slo_search.max_mops -. 3.42) > 0.05 then
    Alcotest.failf "found %.3f, expected ~3.42" r.Minos.Slo_search.max_mops;
  (* Infeasible SLO. *)
  let r0 = Minos.Slo_search.search ~eval ~slo_p99_us:5.0 ~lo_mops:0.5 ~hi_mops:8.0 ~iters:4 in
  check (Alcotest.float 0.0) "infeasible -> 0" 0.0 r0.Minos.Slo_search.max_mops;
  (* SLO met everywhere. *)
  let r8 =
    Minos.Slo_search.search ~eval ~slo_p99_us:1.0e6 ~lo_mops:0.5 ~hi_mops:8.0 ~iters:4
  in
  check (Alcotest.float 0.0) "hi when always met" 8.0 r8.Minos.Slo_search.max_mops

let test_replication_stability () =
  (* Three seeds at a moderate load: p99s agree within a few times their
     spread, and every run is stable.  Guards against seed-sensitive
     artifacts in the reported numbers. *)
  let runs =
    Minos.Par.map_list
      (fun seed ->
        Minos.Experiment.run_spec
          (Minos.Experiment.Spec.with_seed seed (point Kvserver.Design.minos 3.0)))
      [ 1; 2; 3 ]
  in
  let p99s = Stats.Summary.create () in
  List.iter
    (fun (m : Kvserver.Metrics.t) ->
      if not (Float.is_nan m.Kvserver.Metrics.p99_us) then
        Stats.Summary.add p99s m.Kvserver.Metrics.p99_us)
    runs;
  let p99_mean = Stats.Summary.mean p99s and p99_stddev = Stats.Summary.stddev p99s in
  check bool "all stable" true (List.for_all (fun m -> m.Kvserver.Metrics.stable) runs);
  check bool "p99 positive" true (p99_mean > 0.0);
  if p99_stddev > 0.35 *. p99_mean then
    Alcotest.failf "p99 %.1f +- %.1f: too seed-sensitive" p99_mean p99_stddev

let test_csv_export () =
  let dir = Filename.get_temp_dir_name () in
  Unix.putenv "MINOS_CSV_DIR" dir;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "MINOS_CSV_DIR" "")
    (fun () ->
      Minos.Report.table ~title:"CSV Export Check!" ~headers:[ "a"; "b" ]
        [ [ "1"; "x,y" ]; [ "2"; "plain" ] ];
      let path = Filename.concat dir "csv_export_check_.csv" in
      check bool "file written" true (Sys.file_exists path);
      let ic = open_in path in
      let line1 = input_line ic in
      let line2 = input_line ic in
      close_in ic;
      Sys.remove path;
      check bool "header row" true (line1 = "a,b");
      check bool "quoted comma cell" true (line2 = "1,\"x,y\""))

let test_json_helpers () =
  let str = Alcotest.string in
  check str "finite" "1.235" (Obs.Json.float 1.23456);
  check str "nan" "null" (Obs.Json.float Float.nan);
  check str "+inf" "null" (Obs.Json.float Float.infinity);
  check str "-inf" "null" (Obs.Json.float Float.neg_infinity);
  check str "non-finite values in a document" "[\n  null,\n  null\n]\n"
    (Obs.Json.(to_string (List [ Float Float.nan; Float Float.infinity ])));
  check str "lossless escapes" {|"q\"b\\n\nt\tc\u0001"|}
    (Obs.Json.string "q\"b\\n\nt\tc\x01")

let test_design_names_roundtrip () =
  List.iter
    (fun d ->
      match Minos.Experiment.design_of_name (Minos.Experiment.design_name d) with
      | Some d' -> check bool "roundtrip" true (Kvserver.Design.equal d d')
      | None -> Alcotest.fail "name did not parse")
    Minos.Experiment.all_designs;
  check bool "unknown rejected" true (Minos.Experiment.design_of_name "nope" = None)

(* The raw latency vector is the engine's one completion-order record:
   NUMA and cluster runs union it and the fan-out figure resamples it, so
   its order is part of the output.  Pinned bit for bit (digest of the
   samples' IEEE bits, little-endian) at a fixed QUICK point. *)
let test_raw_latencies_pinned () =
  List.iter
    (fun (design, n, digest) ->
      let _, lat =
        Minos.Experiment.run_spec_raw
          (point design 2.0 |> Minos.Experiment.Spec.with_seed 5)
      in
      let b = Buffer.create (8 * Stats.Float_vec.length lat) in
      Stats.Float_vec.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) lat;
      let name = Minos.Experiment.design_name design in
      check Alcotest.int (name ^ " samples") n (Stats.Float_vec.length lat);
      check Alcotest.string (name ^ " digest") digest
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      (Kvserver.Design.minos, 160_349, "19d732d7a10a6c2daad9a119005a365f");
      (Kvserver.Design.hkh, 160_349, "5246d4f17dc0aeeb5fc677c45c199bb7");
    ]

let () =
  Alcotest.run "integration"
    [
      ( "fig3",
        [
          Alcotest.test_case "minos dominates tail" `Slow test_fig3_minos_dominates_tail;
          Alcotest.test_case "ws between" `Slow test_fig3_ws_between;
          Alcotest.test_case "strict slo near peak" `Slow
            test_fig3_minos_meets_strict_slo_near_peak;
          Alcotest.test_case "peaks" `Slow test_fig3_peaks;
        ] );
      ( "fig4",
        [
          Alcotest.test_case "large request price" `Slow
            test_fig4_large_requests_pay_a_bounded_price;
        ] );
      ("fig5", [ Alcotest.test_case "write intensive" `Slow test_fig5_write_intensive ]);
      ("fig6", [ Alcotest.test_case "slo speedup" `Slow test_fig6_slo_speedup ]);
      ( "fig8",
        [
          Alcotest.test_case "sampling bottleneck shift" `Slow
            test_fig8_sampling_shifts_bottleneck;
        ] );
      ("fig9", [ Alcotest.test_case "balanced packets" `Slow test_fig9_balanced_packets ]);
      ("fig10", [ Alcotest.test_case "dynamic workload" `Slow test_fig10_dynamic ]);
      ( "table1",
        [ Alcotest.test_case "mc vs analytic" `Quick test_table1_mc_matches_analytic ] );
      ("fig1", [ Alcotest.test_case "service time span" `Quick test_fig1_span ]);
      ( "harness",
        [
          Alcotest.test_case "slo search mechanics" `Quick test_slo_search_mechanics;
          Alcotest.test_case "design names" `Quick test_design_names_roundtrip;
          Alcotest.test_case "replication stability" `Slow test_replication_stability;
          Alcotest.test_case "raw latencies pinned" `Quick test_raw_latencies_pinned;
          Alcotest.test_case "csv export" `Quick test_csv_export;
          Alcotest.test_case "json helpers" `Quick test_json_helpers;
        ] );
    ]
