(** Discrete-event simulation engine.

    A simulation is a clock (in microseconds) plus a timing-wheel queue of
    pending events ({!Wheel}).  Events are scheduled at absolute or
    relative times; ties are broken by insertion order, so a run is fully
    deterministic for a given seed.

    Events come in two flavours:

    - {e closure events} ({!schedule_at}/{!schedule_after}): a thunk,
      maximally flexible, one closure allocation per event.  The escape
      hatch for cold paths.
    - {e typed events} ({!schedule_call_at}/{!schedule_call_after}): a
      handler tag registered once up front ({!register_handler}) plus two
      int operands, dispatched through the handler table without any
      per-event allocation.  Hot event kinds (service completions, TX
      frame completions, polls, control ticks) should use these.

    {!schedule_timer_after} additionally returns a {!handle} for O(1)
    cancellation — the kernel support for hedged/tied requests. *)

type t

type handle
(** Cancellation handle returned by {!schedule_timer_after}. *)

val null_handle : handle
(** A handle that never names a live timer: {!cancel} on it is a no-op
    returning [false].  An immediate int, so storing it in a
    [handle array] slot costs no allocation — use it as the rest value
    in pooled per-request handle arrays. *)

val is_null : handle -> bool
(** [is_null h] iff [h] is {!null_handle}.  Monomorphic int equality, so
    callers under the hot-path lint need no polymorphic compare. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] makes a simulation whose clock starts at 0.0 µs and
    whose root RNG is seeded with [seed] (default 42). *)

val now : t -> float
(** Current simulated time in microseconds. *)

val fork_rng : t -> Rng.t
(** An independent RNG stream split off the root; give each stochastic
    entity its own stream so that adding an entity does not perturb the
    others' draws. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** [schedule_at t time f] runs [f] when the clock reaches [time].
    Scheduling in the past raises [Invalid_argument]. *)

val schedule_after : t -> float -> (unit -> unit) -> unit
(** [schedule_after t delay f] runs [f] [delay] µs from now ([delay >= 0]). *)

val register_handler : t -> (int -> int -> unit) -> int
(** [register_handler t f] adds [f] to the handler table and returns its
    tag for use with the [schedule_call_*]/[schedule_timer_*] functions.
    Registration is cold (one small allocation); call it at entity setup
    time, once per event kind. *)

val schedule_call_after : t -> float -> tag:int -> i:int -> j:int -> unit
(** [schedule_call_after t delay ~tag ~i ~j] runs [handler i j] [delay]
    µs from now ([delay >= 0]), where [handler] was registered under
    [tag].  Allocation-free in steady state. *)

val schedule_timer_after : t -> float -> tag:int -> i:int -> j:int -> handle
(** Like {!schedule_call_after} but returns a {!handle} that can cancel
    the event in O(1) before it fires. *)

val cancel : t -> handle -> bool
(** Cancel a pending timer.  Returns [false] if it already fired, was
    already cancelled, or the handle is stale (its queue slot was
    reused). *)

val run : t -> until:float -> unit
(** Process events in time order until the clock would exceed [until] or no
    events remain.  Events scheduled exactly at [until] are processed.  The
    clock is left at [until] (or at the last event time if the queue drains
    earlier). *)

val run_until_idle : t -> unit
(** Process events until none remain. *)

val pending_events : t -> int
(** Number of events currently queued.  Only the tests read it, to check
    that every scheduled event is run or cancelled exactly once. *)

val events_processed : t -> int
(** Total events executed since creation; useful for cost reporting. *)
