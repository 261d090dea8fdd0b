(** Shared simulation harness underneath every server design.

    The engine owns the clock, the open-loop clients (its {!intake}), the
    NIC (RX queues + TX line), the per-core accounting and the latency
    recorders.
    A {!design} supplies the scheduling policy: where an incoming request
    is aimed (client-side dispatch), what each core does next, and what
    happens on a control-loop epoch.

    Designs call back into the engine to consume CPU ({!busy}) and to
    serve requests ({!execute}); the engine handles completion, reply
    transmission, sampling and statistics. *)

type request = {
  slot : int;
      (** permanent index in the engine's request pool; every other field
          is overwritten when the slot is reused for a new arrival *)
  mutable op : Cost_model.op;
  mutable key_id : int;
  mutable item_size : int;
      (** GET: stored size (discovered at lookup);
          PUT: size carried in the request *)
  mutable is_large_truth : bool;
      (** dataset ground truth, for per-class metrics *)
  mutable scan_len : int;
      (** keys covered by a SCAN ([item_size] is the range's total
          bytes); 0 for GET/PUT *)
  mutable miss : bool;
      (** the GET found no live item — expired, evicted or never loaded;
          set at service start when a residency model is attached *)
  mutable frames_in : int;
      (** RX frames carrying the request; a fault plan's duplication
          doubles it (retransmission echo) *)
  mutable rx_queue : int;
  mutable span : int;
      (** flight-recorder slot assigned at arrival, [-1] when the request
          is not sampled (or no recorder is attached) *)
}

type t

(** Time-varying offered load, for elastic-resharding runs
    ({!Shardmgr}) and diurnal or burst scenarios.  [rate_at now] is the offered rate (Mops) at simulated
    time [now]; [next_change now] is the next time the rate changes.
    Both must be pure functions of [now], piecewise-constant between
    changes.  While [rate_at] is [0.0] the arrival loop parks until
    [next_change] — no request is generated and no RNG stream advances —
    so a constant positive rate reproduces the unpaced arrival stream
    draw for draw. *)
type pacing = {
  rate_at : float -> float;
  next_change : float -> float;
}

(** {2 Intake}

    An engine built with {!create} brings its own requests in, one typed
    simulator event per arrival, from an intake that pairs a {!content}
    with a {!clock}.  Every pairing is either a run or refused by name at
    {!create}. *)

(** What each arrival carries. *)
type content =
  | Generated of {
      dynamic : Workload.Dynamic.t option;
          (** varies the generator's p_large over time (§6.6) *)
      keep : (now:float -> Workload.Generator.t -> bool) option;
          (** a thinning filter: the engine redraws until [keep ~now gen]
              accepts the draw, which [gen]'s [last_*] accessors hold
              (elastic-resharding runs keep what the routing table sends
              to this server at [now]) *)
    }
      (** the engine's generator *)
  | Replayed of Workload.Trace.t
      (** the trace's requests in order, cycled by index *)

(** When each arrival comes. *)
type clock =
  | Poisson of pacing option
      (** exponential gaps at [offered_mops], or at the pacing's rate of
          the moment *)
  | Recorded
      (** a timestamped trace's recorded offsets from its first request,
          re-based each lap so the recorded rate carries across the seam;
          needs [Replayed] content *)

type intake = { content : content; clock : clock }

(** The policy interface a server design implements. *)
type design = {
  name : string;
  dispatch : request -> int;
      (** client-side choice of RX queue (hardware dispatch) *)
  on_arrival : queue:int -> unit;
      (** a request was enqueued on [queue]; wake whoever polls it *)
  on_epoch : unit -> unit;  (** control-loop tick *)
  large_core_count : unit -> int;
  current_threshold : unit -> float;
}

val create :
  ?intake:intake ->
  ?residency:Residency.t ->
  ?obs:Obs.Instrument.t ->
  ?fault:Fault.Inject.t ->
  ?server:int ->
  Config.t ->
  Workload.Generator.t ->
  offered_mops:float ->
  t
(** [create cfg gen ~offered_mops] prepares a run at the given arrival rate
    (million ops/s).  [intake] is where the engine's arrivals come from
    (default: the generator, unfiltered, at Poisson arrivals of
    [offered_mops]); with a pacing or a recorded clock,
    [offered_mops] only labels the metrics and sizes the latency record.
    Raises [Invalid_argument] on an empty replayed trace and on a
    [Recorded] clock over generated content or an untimed trace.
    [residency] attaches the TTL/eviction model ({!Residency}): GETs that
    find no live item become not-found replies counted in
    [Metrics.expired_misses], PUTs (re)load their key and evict under the
    memory budget (from an RNG stream forked only when residency is
    attached, so plain runs are byte-identical to pre-scenario builds),
    and the model's sweep period, if it has one, schedules the chunked
    background expiry sweep.  [obs] attaches a flight recorder: arrivals are
    sampled into spans (from the recorder's own RNG stream, so attaching
    it perturbs no simulation randomness), the engine records RX-enqueue /
    service / TX / end-to-end timestamps, per-core timeline samples and
    one {!Obs.Decision_log} entry per control epoch; designs fill in the
    poll / classify / handoff stages via the [obs_*] hooks below.
    [fault] attaches a seeded fault injector ({!Fault.Inject}): arrivals
    draw a delivery fate (drop / duplicate / reorder), RX rings honour
    plan squeezes (and [cfg.rx_capacity]), and core work is slowed or
    stalled per the plan's windows.  The injector owns its RNG stream, so
    attaching it perturbs none of the engine's randomness.  [server]
    (default 0) is the id the plan's [kill-server]/[recover-server]
    windows match against: while this server is dead, every arrival
    bounces off the crashed NIC and counts [net_dropped] — multi-engine
    drivers ({!Shardmgr.Run}) pass each engine its cluster id. *)

val attach :
  ?fault:Fault.Inject.t -> ?server:int -> Dsim.Sim.t -> Config.t -> Workload.Dataset.t -> t
(** [attach sim cfg dataset] builds a {e caller-fed} engine on a shared
    simulator: it runs no arrival loop of its own, the caller brings each
    request in with {!submit} and learns its end through {!set_retire}.
    It is the only other way in beside an intake.
    Several engines may share one [sim] ({!Shardmgr.Run.run}'s
    replicated-table case, in front of the hedge router); each forks its
    RNG streams from it in attach order, and [cfg.seed] is unused.  The caller owns request latency: a
    caller-fed engine records no latency samples, so its {!Metrics}
    quantiles are [nan] while its ledger and per-core counters are
    complete.  [fault] and [server] are as for {!create}.  Call {!start}
    before the first {!submit}, drive [sim] yourself, then {!finish}. *)

val sim : t -> Dsim.Sim.t
val config : t -> Config.t
val cores : t -> int
val now : t -> float
(** The simulated clock.  Only test_server reads it through the engine. *)

val rx : t -> int -> int Netsim.Fifo.t
(** RX queue [i].  Queues carry pool {e slots} (resolve with
    {!req_of_slot}), not request pointers: int queues keep the
    per-request push/pop free of the GC write barrier.  Use [-1] as the
    [dummy] for design-side slot queues. *)

val req_of_slot : t -> int -> request
(** The pooled request currently occupying [slot].  Valid until the
    engine retires the slot (see {!execute}). *)

val dispatch_rng : t -> Dsim.Rng.t
(** RNG stream reserved for design dispatch decisions. *)

val put_master : t -> request -> int
(** The core that masters this request's key (keyhash-based): the RX queue
    for PUT dispatch under CREW. *)

val uniform_queue : t -> int
(** A uniformly random RX queue (GET dispatch). *)

val set_resume : t -> (int -> unit) -> unit
(** Install the design's continuation: [resume core] is called whenever
    [core] finishes a {!busy} interval or a request's service completes.
    Dispatched through a typed simulator event, so neither {!busy} nor
    {!execute} allocates a per-event closure.  A design installs it once
    at construction; the engine does nothing until it is set. *)

val busy : t -> core:int -> float -> unit
(** Occupy [core] for the given CPU time, then resume it (see
    {!set_resume}). *)

val execute : t -> core:int -> tx_queue:int -> extra_cpu:float -> request -> unit
(** Serve [request] on [core]: consumes its CPU cost (+ [extra_cpu]),
    then transmits the reply (subject to sampling), records latency and
    per-core counters, and finally resumes [core] (see {!set_resume}).
    [tx_queue] is the TX queue the reply leaves on (normally [core]'s own
    queue) — the §6.1 RX-stealing variant sends stolen smalls' replies
    through the victim's queue so they never serialize behind a large
    reply.  The engine retires the request (returns its pool slot) once
    the reply leaves the wire, or at completion when sampling elides the
    reply; designs must not touch it afterwards.  A {!cancel}led request
    retires here at once instead, and [core] resumes through an event. *)

val run : t -> (t -> design) -> Metrics.t
(** Build the design, generate load, simulate, and report:
    [start] + [Dsim.Sim.run] to [cfg.duration_us] + [finish]. *)

val start : t -> (t -> design) -> unit
(** Build the design and schedule the engine's own events: its first
    arrival (unless caller-fed), control epochs, expiry sweep, timeline
    sampling and the warm-up counter reset.  Nothing runs until the
    simulator does. *)

val finish : t -> Metrics.t
(** Report on the run so far (normally after the simulator reached
    [cfg.duration_us]). *)

(** {2 Caller-fed requests}

    Only for engines built with {!attach}. *)

(** How a submitted request ended. *)
type fate =
  | Served  (** the reply left the wire (or was elided by sampling) *)
  | Net_dropped  (** lost before any queue: a fault drop or a dead server *)
  | Rx_dropped  (** tail-dropped at a full RX ring *)
  | Shed  (** refused by admission control *)
  | Cancelled  (** withdrawn by {!cancel} *)

val submit :
  t ->
  tag:int ->
  Cost_model.op ->
  key_id:int ->
  item_size:int ->
  is_large:bool ->
  scan_len:int ->
  int
(** Bring one request in now, exactly as an arrival: dispatch, fault
    fate, RX delivery.  Returns its slot (the {!cancel} handle), valid
    until the request retires.  The request may retire inside the call
    (dead server, full ring, shed by a core that woke up for it); the
    retire callback then runs before [submit] returns.  Raises
    [Invalid_argument] on an engine that runs its own arrivals. *)

val set_retire : t -> (int -> fate -> unit) -> unit
(** [f tag fate] runs once per submitted request when it retires, after
    its slot is free again. *)

val tag : t -> request -> int
(** The caller's tag of a submitted request ([-1] for engine-generated
    arrivals) — e.g. inside a {!set_probe} observer. *)

val cancel : t -> int -> unit
(** Withdraw the live submitted request in [slot].  Still queued (RX or
    a design's own queue), it retires [Cancelled] when it reaches
    {!execute}, unserved and at no CPU cost; in service, it finishes its
    work but sends no reply and retires [Cancelled].  A request whose
    reply is already on the wire is past cancelling and retires
    [Served].  Counted in [Metrics.cancelled]. *)

val raw_latencies : t -> Stats.Float_vec.t
(** All recorded end-to-end latencies (µs) of the last {!run}, in reply
    completion order — the engine's one latency record (each sample's
    class is a bit beside it, not a second copy).  It is sized once, from
    [offered_mops] over the measurement window, and grows by doubling only
    when a run records more; {!finish} reads its quantiles in place, so
    the record keeps this order.  Used to combine
    distributions across NUMA domains ({!Minos.Numa}) and cluster
    servers, and resampled by the fan-out figure. *)

val windowed : t -> Stats.Windowed.t option
(** The per-window latency recorder (present when [cfg.window_us] is
    set); reshard runs union the raw windows across engines for a
    cluster-level p99 timeline. *)

val try_shed : t -> request -> large:bool -> bool
(** Admission control, called by designs at classification time with
    their view of the request's class.  [true] when the request must be
    dropped instead of served: {!Control.shed} of the total RX backlog
    against [cfg.shed_watermark].  Counted per class in
    {!Metrics}.  On [true] the engine retires the request (returns its
    pool slot); the caller must not touch it afterwards.  Always [false]
    (and free) when no watermark is set. *)

val ctrl_delayed : t -> bool
(** Whether a fault plan starves the control loop of fresh statistics. *)

val corrupt_threshold : t -> float -> float
(** The fault plan's control-corruption window, if open, else identity. *)

val core_ops_live : t -> int array
(** The live per-core served-operation counters (do not mutate); the
    watchdog diffs them across epochs to detect a stalled core. *)

val set_probe : t -> (core:int -> request -> unit) -> unit
(** Install an observer called at the start of every request execution
    (with the executing core; never for a cancelled request).  Tests
    assert scheduling invariants with it, and the hedged cluster learns
    when a copy starts service; no effect on the engine's behaviour. *)

(** {2 Flight-recorder hooks}

    Called by designs at the corresponding scheduling points; each is a
    single timestamp store when the request carries a sampled span and a
    no-op otherwise (never allocates, safe on the hot path). *)

val obs_poll : t -> request -> unit
(** The request was dequeued from its RX queue. *)

val obs_classify : t -> request -> unit
(** The request was size-classified (size-aware designs). *)

val obs_handoff_enq : t -> request -> unit
(** Pushed onto a software handoff queue. *)

val obs_handoff_deq : t -> request -> unit
(** Popped from a software handoff queue by its serving core. *)
