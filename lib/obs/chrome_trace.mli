(** Chrome trace-event JSON exporter (Perfetto / chrome://tracing).

    Emits one JSON object with a [traceEvents] array:

    - metadata ([ph:"M"]) naming the process and one track per core
      ([tid] = core id), per TX queue ([tid] = 1000 + queue) and for the
      control loop;
    - per complete span: an async request span ([ph:"b"]/[ "e"], [cat]
      ["request"], [id] = request seq) from RX enqueue to end-to-end
      completion, with async-instant steps for poll / classify / handoff;
      a [B]/[E] "service" pair on the serving core's track (service is
      run-to-completion, so the pairs nest trivially per track); and an
      [X] "tx" complete event on the TX-queue track (reply transmissions
      may overlap, which [X] events allow);
    - counter events ([ph:"C"]) for per-core RX depth and utilization
      from the {!Timeline}, and for the control loop's threshold and core
      split from the {!Decision_log}.

    Every event carries the recorder's server id as its [pid], so a
    single-server trace renders as process 0 and a cluster trace
    ({!write_cluster}) as one process group per shard.

    Timestamps are microseconds formatted with fixed precision, and
    events are emitted in deterministic (slot/sample) order, so two runs
    with the same seed produce byte-identical files. *)

val write :
  path:string ->
  ?name:string ->
  ?timeline:Timeline.t ->
  ?decisions:Decision_log.t ->
  Recorder.t ->
  unit

val to_buffer :
  ?name:string ->
  ?timeline:Timeline.t ->
  ?decisions:Decision_log.t ->
  Recorder.t ->
  Buffer.t ->
  unit
(** Same, into a caller-supplied buffer.  Only the tests call it, to
    read a trace without a file. *)

val write_cluster : path:string -> (string * Instrument.t) list -> unit
(** One merged trace for a cluster run: each [(name, instrument)] pair
    becomes a process section whose [pid] is the instrument recorder's
    server id.  Section order and per-section event order are
    deterministic, so fixed-seed cluster traces are byte-identical. *)

val cluster_to_buffer : (string * Instrument.t) list -> Buffer.t -> unit
(** {!write_cluster} into a caller-supplied buffer.  Only test_obs
    calls it, to read a cluster trace without a file. *)
