(** Log-bucketed histogram with fractional (smoothable) counts.

    This is the histogram each Minos core keeps over observed item sizes
    (§3 of the paper, "How to find the threshold between large and small")
    and that we also use for memory-bounded latency recording.

    Values in [\[min_value, max_value\]] are mapped to geometrically spaced
    buckets: bucket [i] covers [min_value * gamma^i, min_value * gamma^(i+1))].
    Values below [min_value] land in the first bucket, values above
    [max_value] in the last.  Counts are floats so that histograms can be
    exponentially smoothed across epochs (the paper's α = 0.9 moving
    average) and merged across cores. *)

type t

val create : ?buckets_per_decade:int -> min_value:float -> max_value:float -> unit -> t
(** [buckets_per_decade] controls resolution (default 32, i.e. ~7.5 % wide
    buckets).  Requires [0 < min_value < max_value]. *)

val record : t -> float -> unit
(** Add one observation.  Allocates nothing. *)

val record_int : t -> int -> unit
(** {!record} of an integer observation, without boxing it as a float
    argument. *)

val total : t -> float
(** Sum of all counts.  Only test_stats reads it, as the probe of what
    {!record}, {!merge_into} and {!smooth} add. *)

val is_empty : t -> bool

val buckets : t -> int

val bucket_upper_bound : t -> int -> float
(** Exclusive upper bound of bucket [i]; observations reported by
    {!quantile} use this as the representative value, so quantiles
    over-estimate by at most one bucket width. *)

val quantile : t -> float -> float
(** [quantile t q] for [0 < q <= 1]: the upper bound of the first bucket at
    which the cumulative count reaches [q * total].  Raises
    [Invalid_argument] if the histogram is empty. *)

val merge_into : dst:t -> t -> unit
(** [merge_into ~dst src] adds [src]'s counts into [dst].  Layouts must
    match. *)

val smooth : prev:t -> current:t -> alpha:float -> t
(** The paper's epoch smoothing: a fresh histogram whose counts are
    [(1 - alpha) * prev + alpha * current].  With [alpha = 0.9] the new
    epoch dominates.  Layouts must match. *)

val smooth_into : prev:t -> current:t -> alpha:float -> unit
(** {!smooth} written over [prev]: the same counts, without allocating. *)

val weighted_sums :
  t -> weights:float array -> threshold:float -> into:float array -> unit
(** [into.(0)] and [into.(1)]: the sums of [count i *. weights.(i)] over
    the non-empty buckets whose upper bound is [<= threshold], and over
    the others, added in bucket order.  One weight per bucket.  Allocates
    nothing. *)

val cut_points : t -> weights:float array -> threshold:float -> into:int array -> int
(** Cut the weighted mass above [threshold] into [Array.length into + 1]
    parts.  Walk the non-empty buckets whose upper bound is
    [> threshold] in order, summing [count i *. weights.(i)]; each time
    the sum reaches the next multiple of [total / parts], note the bucket
    in [into], until [into] is full.  Returns how many buckets it noted,
    or [-1] when that mass is [<= 0].  Allocates nothing. *)

val copy : t -> t

val reset : t -> unit
(** Zero all counts. *)

val fold : (int -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over (bucket index, count) for nonzero buckets, in order. *)
