(** Exact quantiles of in-memory samples.

    Uses the nearest-rank definition: the [q]-quantile of [n] sorted samples
    is the element at index [ceil(q * n) - 1] (clamped), so the 0.99-quantile
    of 100 samples is the 99th smallest.  This matches how the paper reports
    "the 99th percentile". *)

val sort_floats : float array -> unit
(** In-place float-specialized sort (no per-element boxing, unlike
    [Array.sort compare] on a [float array]).  Samples must be finite:
    NaNs are not ordered. *)

val of_sorted : float array -> float -> float
(** [of_sorted sorted q] with [0 < q <= 1].  Raises [Invalid_argument] on an
    empty array or out-of-range [q]. *)

val of_sorted_union : float array -> float array -> float -> float
(** [of_sorted_union a b q] is [of_sorted] over the sorted union of the
    sorted arrays [a] and [b] (either may be empty), found by bisection in
    O(log n) without building the union.  When [a] and [b] partition a
    sample (e.g. per-class latencies), this is the quantile of the whole
    sample.  Raises [Invalid_argument] when both are empty or [q] is out
    of range. *)

val of_array : float array -> float -> float
(** Sorts a copy, then applies {!of_sorted}. *)

val of_vec : Float_vec.t -> float -> float

val many_of_vec : Float_vec.t -> float list -> float list
(** Compute several quantiles with a single sort. *)

val mean_of_vec : Float_vec.t -> float
(** Arithmetic mean; 0 for an empty vector. *)
