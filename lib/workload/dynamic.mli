(** Time-varying workload schedules (§6.6).

    A schedule is a sequence of phases, each holding a value of [p_large]
    for a fixed duration.  The paper's dynamic experiment steps p_l through
    0.125 → 0.25 → 0.5 → 0.75 → 0.5 → 0.25 → 0.125, twenty seconds per
    phase, at a fixed 2.25 Mops arrival rate. *)

type phase = { duration_us : float; p_large : float }

type t

val create : phase list -> t
(** At least one phase; durations must be positive. *)

val paper_schedule : phase_us:float -> t
(** The §6.6 schedule: seven phases of [phase_us] each, with p_l rising
    0.125 → 0.25 → 0.5 → 0.75 and falling back (20 s phases in the
    paper). *)

val total_duration : t -> float

val p_large_at : t -> float -> float
(** The p_l in effect at an absolute simulation time.  Times past the end
    hold the last phase's value. *)
