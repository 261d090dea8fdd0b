(** Native multicore Minos server.

    The paper's data plane on real OCaml 5 domains, run to completion as
    Minos' small cores are (§4): one worker domain per queue, and each
    worker is the whole data plane of its queue.  An iteration receives
    what arrived on the worker's queue, drains a batch from its rings,
    classifies each request by its item size against the current
    threshold, serves small ones in place and replies itself.  A large
    request crosses a software ring to a large core, which serves it and
    replies; small cores also poll a fair share of the large cores' RX
    rings.  Core 0 runs the §3 control loop, {!Kvserver.Control.Epoch}
    as the simulator does, once per epoch between batches.  Under
    {!Kvserver.Design.hkh} nothing is classified: every core serves its
    own ring.

    The loop is written once over a {!transport}: in-process by default
    ({!submit} feeds the RX rings, {!poll_reply} drains the replies), or
    {!Udp}'s sockets.  Either way [cores = n] means exactly [n] domains.
    Besides the transport and the clock, the write path differs from the
    paper's DPDK implementation: every write takes its partition's lock,
    since a key can be written from more than one core.  Tests assert
    functional behaviour (classification, adaptation, exactly-once
    completion), never latency.

    Typical use:
    {[
      let store = Kvstore.Store.create () in
      (* populate store ... *)
      let server = Server.start ~config store in
      Server.submit server request;            (* from any domain *)
      let reply = (* poll *) Server.poll_reply server in
      Server.stop server
    ]} *)

type config = {
  cores : int;            (** worker domains, 2 to {!max_cores} *)
  design : Kvserver.Design.t;
      (** {!Kvserver.Design.minos} or {!Kvserver.Design.hkh}; {!start}
          raises {!Unsupported_design} for any other *)
  epoch_s : float;        (** control-loop period, seconds *)
  shed_watermark : int option;
      (** {!Kvserver.Control.shed}'s watermark on the total RX backlog:
          a shed request is answered [Overloaded].  [None] (default)
          disables shedding. *)
  clamp_threshold : float option;
      (** harden the control loop ({!Kvserver.Control.Epoch.plan});
          [None] keeps the unguarded paper behaviour. *)
  fault : Fault.Inject.t option;
      (** deterministic fault plan to run the server under: a fault-clock
          thread samples the plan's windows ~every millisecond into
          per-core flags — core slowdowns become per-iteration stalls,
          ring squeezes lower the effective RX admission cap, and a
          control stat-delay window makes every control tick stale. *)
}

val max_cores : unit -> int
(** The most worker domains {!start} accepts:
    [max 2 (Domain.recommended_domain_count ())].  Only test_runtime
    reads it, to size its runs to the box. *)

val default_config : config
(** [min 4 (max_cores ())] cores, {!Kvserver.Design.minos}, 50 ms
    epochs, no shedding, no clamp, no fault plan.  The rest of the Minos
    policy is {!Kvserver.Config.default}'s, as in the simulator: poll
    batch 32, α = 0.9, the p99 threshold and the packets cost function. *)

val batch : int
(** The poll batch, {!Kvserver.Config.default}'s (32). *)

val ring_capacity : int
(** Slots of every RX ring and software queue (4096, a power of two). *)

exception Oversubscribed of { cores : int; limit : int }
(** Raised by {!start} when [cores > limit = max_cores ()]: surplus
    domains would only time-slice, a silent slowdown. *)

exception Unsupported_design of { design : string }
(** Raised by {!start} for a registry design other than
    {!Kvserver.Design.minos} and {!Kvserver.Design.hkh}, by its name. *)

(** How the worker loop meets the outside world. *)
type transport = {
  receive : int -> (Message.request -> bool) -> int;
      (** [receive q admit]: worker [q] moves what arrived on its queue
          into its RX ring, one [admit] per request ([false]: refused,
          drop it); returns how much arrived. *)
  value_buf : int -> int -> bytes;
      (** [value_buf q len]: where worker [q] copies a GET's [len]-byte
          value, at offset [value_off]; at least [value_off + len] bytes.
          Called while the value is read, possibly more than once. *)
  value_off : int;
  reply : int -> Message.request -> Message.status -> bytes option -> int -> unit;
      (** [reply q req status value value_size]: called by worker [q],
          which served [req], on its domain; never blocks.  A successful
          GET's [value] is the buffer [value_buf] returned last, its
          [value_size] bytes at [value_off].  The arguments are the
          fields of a {!Message.reply}: a transport that needs no
          record builds none. *)
  park : int -> float -> unit;
      (** [park q timeout_s]: idle worker [q] waits for input. *)
}

type t

val start :
  ?obs:Obs.Instrument.t -> ?config:config -> ?transport:transport -> Kvstore.Store.t -> t
(** Spawn one worker domain per core; the store must outlive the server.
    With a [transport], {!poll_reply} answers [None].  Raises
    {!Oversubscribed}, {!Unsupported_design} or [Invalid_argument] for a
    config it cannot honour.  [obs] attaches a flight recorder: {!submit}
    samples requests by a hash of their id ({!Obs.Recorder.try_sample_id}
    — deterministic per id with no cross-domain RNG), workers record the
    poll / classify / handoff / service / reply stages with wall-clock
    microsecond timestamps, worker 0 appends one {!Obs.Decision_log}
    entry per control tick, stale ones included, and, when the instrument
    carries a timeline, samples per-core RX depth and busy time.  Export (e.g. with
    {!Obs.Chrome_trace}) only after {!stop}. *)

val submit : t -> Message.request -> bool
(** Hardware-dispatch stand-in: route the request to an RX ring (random
    for GETs/SCANs, keyhash for PUTs) — callable from any domain.  [false] when
    the chosen ring is full or squeezed below its capacity by a fault
    plan (client should back off and retry). *)

val poll_reply : t -> Message.reply option
(** Collect one completed reply of the in-process transport, if any
    (multi-consumer safe). *)

val store_of : t -> Kvstore.Store.t
(** The store this server serves (for front ends that need direct access,
    e.g. for administrative inspection). *)

type stats = {
  served : int array;            (** per-core completed requests *)
  handoffs : int;                (** small->large ring transfers *)
  threshold : float;             (** current size threshold *)
  n_small : int;
  n_large : int;
  epochs : int;                  (** control ticks, stale ones included *)
  shed_small : int;              (** small requests answered [Overloaded] *)
  shed_large : int;              (** large requests answered [Overloaded] *)
  rx_rejected : int;             (** submissions refused at the RX ring
                                     (full ring or capacity squeeze) *)
  no_memory : int;               (** PUTs answered [Overloaded] because the
                                     store's value arena could not hold
                                     them ({!Kvstore.Slab.Out_of_memory}) *)
  ctrl_stale : int;              (** control ticks a fault made stale:
                                     their histograms were discarded *)
  failures : (int * string) list;
      (** workers killed by an exception: core id and the exception *)
  ledger : Obs.Ledger.t;
      (** [issued] = submissions the RX rings accepted plus [rx_rejected],
          against the legs [served], [shed_small], [shed_large],
          [rx_rejected], [no_memory], [worker_failed] (held by a dead
          worker, or left on its rings at {!stop}) and [in_flight]; exact
          after {!stop}. *)
}

val stats : t -> stats

val stop : t -> unit
(** Stop accepting, wait until every accepted request is answered or
    written off with a dead worker, and join all domains.  Idempotent. *)
