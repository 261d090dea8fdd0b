(** Per-core queue-depth and utilization time series.

    A bounded, preallocated sampler: the caller (the engine's periodic
    tick) opens a sample with {!start_sample} and fills one depth /
    cumulative-busy-µs pair per core.  Recording never allocates; when
    the capacity is reached further samples are ignored. *)

type t

val create : cores:int -> interval_us:float -> capacity:int -> t

val cores : t -> int

val interval_us : t -> float
(** The nominal sampling period (the caller schedules itself with it). *)

val samples : t -> int

val start_sample : t -> now:float -> int
(** Begin a sample at simulated/real time [now]; returns its index, or
    [-1] when the series is full. *)

val set_core : t -> sample:int -> core:int -> depth:int -> busy_us:float -> unit
(** [depth] is the core's RX-queue occupancy; [busy_us] its {e cumulative}
    busy time — {!utilization} differentiates consecutive samples. *)

val time : t -> int -> float
val depth : t -> int -> int -> int

val utilization : t -> int -> int -> float
(** Busy fraction of the interval ending at the given sample, in [0, 1];
    0 for the first sample. *)
