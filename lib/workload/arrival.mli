(** Arrival processes: how offered load varies over a run.

    A scenario pairs a request mix with one of these processes.  The
    engine consumes the process either live — as a pacing function
    modulating its exponential inter-arrival draws — or offline, by
    sampling a timed trace from it ({!timestamps}, via Lewis–Shedler
    thinning) that replays byte-identically per seed. *)

type t =
  | Poisson  (** constant-rate memoryless arrivals (the paper's setup) *)
  | Diurnal of { period_us : float; amplitude : float }
      (** rate(t) = base × (1 + amplitude·sin(2πt/period)): a compressed
          day/night ramp.  [0 <= amplitude < 1]. *)
  | Bursts of { on_us : float; off_us : float; factor : float }
      (** square-wave modulation: [factor]× the base rate for [on_us],
          then the base rate for [off_us], repeating.  [factor = 0] makes
          an on/off source. *)

val validate : t -> (unit, string) result

val rate_at : t -> base:float -> float -> float
(** Instantaneous rate (Mops) at an absolute time, for a base rate.  Pure
    in the time argument. *)

val next_change : t -> base:float -> float -> float
(** Next time after the argument at which the rate regime changes
    (infinity for Poisson); used to park an engine whose current rate is
    zero. *)

val timestamps : t -> base:float -> n:int -> seed:int -> float array
(** [n] arrival times (µs, ascending from ~0) drawn from the process by
    thinning; deterministic per [seed]. *)
