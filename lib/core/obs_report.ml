(* Latency-anatomy reporting on top of lib/obs; see obs_report.mli. *)

let stat_cells (s : Obs.Anatomy.stat) =
  [ Report.f1 s.Obs.Anatomy.mean; Report.f1 s.Obs.Anatomy.p50; Report.f1 s.Obs.Anatomy.p99 ]

let print_anatomy (a : Obs.Anatomy.t) =
  let row (r : Obs.Anatomy.row) =
    (r.Obs.Anatomy.component :: stat_cells r.Obs.Anatomy.small)
    @ stat_cells r.Obs.Anatomy.large
    @ stat_cells r.Obs.Anatomy.all
  in
  Report.table ~title:"latency anatomy (us)"
    ~headers:
      [
        "component";
        "small mean"; "small p50"; "small p99";
        "large mean"; "large p50"; "large p99";
        "all mean"; "all p50"; "all p99";
      ]
    (List.map row (a.Obs.Anatomy.rows @ [ a.Obs.Anatomy.end_to_end ]));
  Report.note "spans: %d complete; component sums match end-to-end within %.4f us"
    a.Obs.Anatomy.spans_used a.Obs.Anatomy.max_sum_error_us

let run ?(spans = 65536) ?(sample_rate = 1.0) (run : Run.t) =
  let cfg = Run.config run in
  let design = run.Run.design in
  let obs =
    Obs.Instrument.create ~spans ~sample_rate ~cores:cfg.Kvserver.Config.cores
      ~seed:(cfg.Kvserver.Config.seed + run.Run.seed) ()
  in
  let spec = Run.spec run |> Experiment.Spec.with_obs obs in
  let offered_mops = spec.Experiment.Spec.offered_mops in
  let metrics = Experiment.run_spec spec in
  let anatomy = Obs.Anatomy.compute obs.Obs.Instrument.recorder in
  Report.section
    (Printf.sprintf "Latency anatomy: %s at %.2f Mops"
       (Experiment.design_name design) offered_mops);
  Report.note "%s" (Format.asprintf "%a" Kvserver.Metrics.pp_row metrics);
  Report.note "%s" (Format.asprintf "%a" Kvserver.Metrics.pp_breakdown metrics);
  if metrics.Kvserver.Metrics.lost > 0 then
    Report.note "goodput %s; ledger %s"
      (Report.pct (Kvserver.Metrics.goodput_fraction metrics))
      (Format.asprintf "%a" Obs.Ledger.pp (Kvserver.Metrics.ledger metrics));
  print_anatomy anatomy;
  let r = obs.Obs.Instrument.recorder in
  Report.note "recorder: %d spans recorded, %d dropped (capacity %d, rate %.3f)"
    (Obs.Recorder.recorded r) (Obs.Recorder.dropped r) (Obs.Recorder.capacity r)
    (Obs.Recorder.sample_rate r);
  let d = obs.Obs.Instrument.decisions in
  if Obs.Decision_log.length d > 0 then
    Report.note "control: %d epochs, %d core-count changes, final threshold %s B"
      (Obs.Decision_log.length d) (Obs.Decision_log.moves d)
      (Report.f0 (Obs.Decision_log.threshold d (Obs.Decision_log.length d - 1)));
  (match run.Run.trace_out with
  | None -> ()
  | Some path ->
      Obs.Chrome_trace.write ~path
        ~name:(Printf.sprintf "minos %s" (Experiment.design_name design))
        ?timeline:obs.Obs.Instrument.timeline ~decisions:d r;
      Report.note "trace written to %s (load in Perfetto / chrome://tracing)" path);
  (obs, anatomy, metrics)
