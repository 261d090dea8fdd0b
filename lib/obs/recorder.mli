(** Per-request flight recorder.

    A bounded trace ring of {!Span} records backed by preallocated flat
    arrays.  The record path — {!try_sample} / {!try_sample_id} followed
    by {!set_ts} / {!set_meta} stores — performs no allocation: floats go
    into an unboxed [float array], metadata into an [int array], and slot
    acquisition is an atomic counter bump.  When the ring is full,
    further samples are counted in {!dropped} and recording stops (spans
    never alias, so a trace is a prefix of the run, flight-recorder
    style).

    {b Determinism.}  {!try_sample}'s decisions come from a dedicated
    {!Dsim.Rng} stream derived from [seed]: the simulator calls it once
    per offered request in arrival order, so two runs with the same seed
    sample the same request set and produce bit-identical traces — also
    under {!Par} parallelism, where each engine owns its recorder.
    {!try_sample_id} instead hashes the caller-supplied request id (the
    multicore runtime has no ordered request stream to share an RNG
    over); it is deterministic per id.

    {b Concurrency.}  Slot acquisition is thread-safe; each slot is then
    owned by the single request it was assigned to.  Readers
    ({!get_ts}/{!get_meta} and the exporters) must run after the
    producers quiesce. *)

type t

val create :
  ?server:int -> ?capacity:int -> ?sample_rate:float -> seed:int -> unit -> t
(** [capacity] (default 65536) bounds the number of recorded spans;
    memory is [capacity * (n_ts + n_meta)] words, allocated up front.
    [sample_rate] in (0, 1] (default 1.0) is the fraction of requests
    recorded.  [server] (default 0) tags every span with the id of the
    server instance that produced it — cluster runs give each shard its
    own recorder, and exporters use the tag as the trace process id. *)

val server : t -> int
(** The server id the recorder was created with. *)

val capacity : t -> int
val sample_rate : t -> float

val recorded : t -> int
(** Number of spans recorded so far (at most [capacity]). *)

val dropped : t -> int
(** Samples lost because the ring was full. *)

val try_sample : t -> int
(** Sampling decision plus slot acquisition: the slot index to record
    into, or [-1] (not sampled, or ring full).  Allocation-free.
    Consumes one RNG draw per call even when the ring is full, so the
    sample decision stream is a pure function of the seed and call
    count. *)

val try_sample_id : t -> id:int -> int
(** Like {!try_sample} but decides by a hash of [id] instead of the RNG
    stream; safe to call concurrently from several domains. *)

val set_ts : t -> int -> int -> float -> unit
(** [set_ts t slot field time_us] with [field] a [Span.ts_*] index. *)

val get_ts : t -> int -> int -> float

val set_meta : t -> int -> int -> int -> unit
(** [set_meta t slot field v] with [field] a [Span.meta_*] index. *)

val get_meta : t -> int -> int -> int

val complete : t -> int -> bool
(** A span is complete once [Span.ts_end] has been recorded. *)

val reset : t -> unit
(** Forget all recorded spans (slots are re-zeroed on acquisition).  Only
    test_obs calls it, to reuse a recorder across cases. *)
