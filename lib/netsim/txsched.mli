(** Frame-level round-robin transmit scheduler.

    A multi-queue NIC does not serialize whole messages FIFO: the DMA
    engine services the per-core TX queues round-robin at {e frame}
    granularity.  A small reply therefore waits at most one frame time per
    active queue — it is never stuck behind all 340 frames of a 500 KB
    reply on another queue — while large replies stretch in proportion to
    concurrent traffic.  This is essential to reproduce the paper's
    low-load tail latencies: with FIFO-by-message a 40 Gbit wire alone
    would add a ~50 µs tail at any load.

    The scheduler is driven by the simulator through the [schedule]
    closure supplied at creation, which must arrange for {!frame_done} to
    run after the given delay; one event per frame is processed only
    while the wire is busy.  The wire serializes frames, so at most one
    callback is ever outstanding — the caller can wire [schedule] to a
    single preallocated (typed) simulator event and the per-frame path
    allocates nothing.

    Completion is reported through the single [on_complete] callback
    installed at creation, keyed by the integer [token] the caller passed
    to {!send} (the server uses its request-pool slot).  Messages are
    pooled internally, so steady-state sends allocate nothing. *)

type t

val create :
  gbps:float ->
  queues:int ->
  schedule:(float -> unit) ->
  now:(unit -> float) ->
  on_complete:(int -> float -> unit) ->
  t
(** [schedule delay] must arrange for {!frame_done} on this scheduler to
    run after [delay] µs; [now ()] must return the current simulation
    time.  [on_complete token finish] fires when the message submitted
    with [token] finishes its last frame. *)

val frame_done : t -> unit
(** Wire-completion callback for the frame currently on the wire: reports
    the message if that was its last frame and puts the next frame on the
    wire.  Must be invoked exactly once per [schedule] request, after the
    requested delay. *)

val send : t -> queue:int -> payload_bytes:int -> token:int -> unit
(** Enqueue one UDP message (fragmented per {!Frame}) on a TX queue.
    [on_complete] (from {!create}) fires with [token] and the
    wire-completion time of its last frame. *)

val busy : t -> bool
(** Whether a frame is on the wire.  Only test_txsched reads it, to check
    that the wire goes idle after the last frame. *)

val total_bytes : t -> int
(** Wire bytes sent since the last {!reset_counters}.  Only test_txsched
    reads it, as the probe of the scheduler's byte accounting. *)

val utilization : t -> elapsed:float -> float
(** Fraction of [elapsed] µs the wire spent transmitting since the last
    {!reset_counters}. *)

val reset_counters : t -> unit

val pending_messages : t -> int
(** Messages sent and not yet completed, including one whose last frame
    is on the wire. *)
