(** The three collectors one instrumented run carries: the per-request
    flight {!Recorder}, an optional per-core {!Timeline} sampler and the
    control-loop {!Decision_log}.  Execution engines take an optional
    [Instrument.t]; when absent, every hook is a no-op. *)

type t = {
  recorder : Recorder.t;
  timeline : Timeline.t option;
  decisions : Decision_log.t;
}

val create :
  ?server:int ->
  ?spans:int ->
  ?sample_rate:float ->
  ?timeline:bool ->
  cores:int ->
  seed:int ->
  unit ->
  t
(** [server], [spans] and [sample_rate] configure the recorder (defaults
    0, 65536 and 1.0; see {!Recorder.create}); the timeline samples every
    500 µs for up to 8192 samples, or is omitted entirely with
    [~timeline:false]. *)
