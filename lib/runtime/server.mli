(** Native multicore Minos server.

    This is the paper's data plane running on real OCaml 5 domains rather
    than in the simulator: worker domains poll lock-free RX rings in
    batches, classify requests by looking up the item size against the
    current threshold, serve small requests in place, and hand large ones
    over software rings to the large pool; core 0 runs the §3 control loop
    (merge per-core size histograms, EMA-smooth, re-derive the threshold
    and the core split) once per epoch.

    Differences from the paper's C/DPDK implementation are confined to the
    transport (in-process rings or kernel UDP instead of NIC queues) and
    the clock; the sharding logic, CREW/locking discipline, batching and
    adaptation are the real thing.  On a single-CPU host the domains
    time-slice, so absolute latencies are not meaningful — functional
    behaviour (classification, adaptation, exactly-once completion) is
    what this runtime demonstrates, and what its tests assert.

    Typical use:
    {[
      let store = Kvstore.Store.create () in
      (* populate store ... *)
      let server = Server.start ~config store in
      Server.submit server request;            (* from any domain *)
      let reply = (* poll *) Server.poll_reply server in
      Server.stop server
    ]} *)

type mode =
  | Size_aware  (** Minos: small/large pools + control loop *)
  | Keyhash     (** HKH baseline: every core serves its own ring only *)

type config = {
  cores : int;            (** worker domains (>= 2) *)
  batch : int;            (** ring poll batch *)
  epoch_s : float;        (** control-loop period, seconds *)
  alpha : float;          (** histogram smoothing (paper: 0.9) *)
  percentile : float;     (** threshold percentile (0.99) *)
  cost_fn : Kvserver.Cost_model.cost_fn;
  mode : mode;
  ring_capacity : int;    (** per-ring slots, power of two *)
  idle_backoff_s : float; (** sleep after repeated empty polls, so spinning
                              workers behave on machines with fewer
                              hardware threads than workers *)
  shed_watermark : int option;
      (** admission-control watermark on a worker's backlog (RX + software
          queue): above it, large requests are answered [Overloaded]
          instead of executed; small requests only shed above 4x the
          watermark.  [None] (default) disables shedding. *)
  clamp_threshold : float option;
      (** harden the control loop: reject NaN / non-positive thresholds
          and clamp per-epoch movement to this fraction of the last good
          value ({!Kvserver.Control.sanitize}).  [None] keeps the
          unguarded paper behaviour. *)
  expiry_sweep_s : float;
      (** period of the background expiry-sweep thread that reclaims
          TTL-lapsed items ({!Kvstore.Store.expire_sweep}); [0.0]
          (default) disables it — lapsed items are then reclaimed only
          lazily when a read misses them. *)
  fault : Fault.Inject.t option;
      (** deterministic fault plan to run the server under: a fault-clock
          thread samples the plan's windows ~every millisecond into
          per-core flags — core slowdowns become per-iteration stalls,
          ring squeezes lower the effective RX admission cap, and control
          stat-delay windows make the controller skip epochs. *)
}

val default_config : config
(** 4 cores, batch 32, 50 ms epochs, α = 0.9, p99, packets cost,
    size-aware mode. *)

type t

val start : ?obs:Obs.Instrument.t -> ?config:config -> Kvstore.Store.t -> t
(** Spawn the worker domains and the dispatcher state.  The store must
    outlive the server.  [obs] attaches a flight recorder: {!submit}
    samples requests by a hash of their id ({!Obs.Recorder.try_sample_id}
    — deterministic per id with no cross-domain RNG), workers record the
    poll / classify / handoff / service / reply stages with wall-clock
    microsecond timestamps, worker 0 appends one {!Obs.Decision_log}
    entry per control epoch and, when the instrument carries a timeline,
    samples per-core RX depth and busy time.  Export (e.g. with
    {!Obs.Chrome_trace}) only after {!stop}. *)

val submit : t -> Message.request -> bool
(** Hardware-dispatch stand-in: route the request to an RX ring (random
    for GETs/SCANs, keyhash for PUTs) — callable from any domain.  [false] when
    the chosen ring is full or squeezed below its capacity by a fault
    plan (client should back off and retry). *)

val poll_reply : t -> Message.reply option
(** Collect one completed reply, if any (multi-consumer safe). *)

val store_of : t -> Kvstore.Store.t
(** The store this server serves (for front ends that need direct access,
    e.g. for administrative inspection). *)

type stats = {
  served : int array;            (** per-core completed requests *)
  handoffs : int;                (** small->large ring transfers *)
  threshold : float;             (** current size threshold *)
  n_small : int;
  n_large : int;
  epochs : int;                  (** control-loop executions *)
  shed_small : int;              (** small requests answered [Overloaded] *)
  shed_large : int;              (** large requests answered [Overloaded] *)
  rx_rejected : int;             (** submissions refused at the RX ring
                                     (full ring or capacity squeeze) *)
  ctrl_stale : int;              (** control epochs skipped because the
                                     stat pipeline was delayed by a fault *)
  expired : int;                 (** TTL-lapsed slots reclaimed (lazily on
                                     read or by the sweep thread) *)
  ledger : Obs.Ledger.t;
      (** [issued] = submissions the RX rings accepted plus [rx_rejected],
          against the legs [served], [shed_small], [shed_large],
          [rx_rejected] and [in_flight]; exact after {!stop}. *)
}

val stats : t -> stats

val stop : t -> unit
(** Drain in-flight work, stop the control loop and join all domains.
    Idempotent. *)
