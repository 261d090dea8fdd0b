(** Flight-recorder front end: run one instrumented simulation point and
    report where its latency went.

    This is what [minos obs] drives: it attaches an {!Obs.Instrument} to a
    single {!Experiment.run_spec}, prints the {!Kvserver.Metrics} summary and
    breakdown rows, the per-component latency-anatomy table (CSV via
    [MINOS_CSV_DIR], like every {!Report.table}), recorder occupancy and
    the control-loop decision summary, and optionally writes the Chrome
    trace-event JSON. *)

val print_anatomy : Obs.Anatomy.t -> unit
(** Just the anatomy table + invariant note, for callers that computed
    the anatomy themselves. *)

val run :
  ?spans:int ->
  ?sample_rate:float ->
  Run.t ->
  Obs.Instrument.t * Obs.Anatomy.t * Kvserver.Metrics.t
(** Run the run's point ({!Run.spec}), scenario extras included, with a
    flight recorder attached, and print the report.  [spans] bounds the
    recorder ring, [sample_rate] the fraction of requests recorded; the
    run's [trace_out] names the Chrome trace JSON to write.  Returns the
    instrument (for exporters/tests), the computed anatomy and the run's
    metrics. *)
