(** Fixed-width time windows of samples.

    Figure 10 of the paper reports the 99th-percentile latency over 1-second
    windows of a 140-second run; this recorder buckets timestamped samples
    into windows and reports per-window aggregates. *)

type t

val create : width:float -> unit -> t
(** [width] is the window length (same unit as the timestamps, µs in our
    simulations). *)

val add : t -> time:float -> float -> unit
(** Record a sample observed at [time].  Timestamps may arrive slightly out
    of order (completions are not monotonic in arrival order); each sample
    is routed to the window containing its timestamp.  Negative times are
    rejected. *)

type window = { start_time : float; samples : Float_vec.t }

val windows : t -> window list
(** All non-empty windows in increasing time order. *)

val quantile_series : t -> float -> (float * float) list
(** [(window start time, q-quantile of that window)] for each non-empty
    window. *)
