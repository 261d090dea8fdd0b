(** Exact quantiles of in-memory samples.

    Uses the nearest-rank definition: the [q]-quantile of [n] sorted samples
    is the element at index [ceil(q * n) - 1] (clamped), so the 0.99-quantile
    of 100 samples is the 99th smallest.  This matches how the paper reports
    "the 99th percentile".

    Unsorted samples are answered by exact selection in place: count passes
    over the samples' order-preserving IEEE bit keys narrow the key range
    that holds the rank, and the few thousand samples left are sorted in a
    bounded scratch array.  O(n) per quantile; the samples are neither
    copied nor reordered.  Samples must not be NaN: the selection raises
    [Invalid_argument] on one, as {!sort_floats} cannot order them. *)

val sort_floats : float array -> unit
(** In-place float-specialized sort (no per-element boxing, unlike
    [Array.sort compare] on a [float array]).  Samples must be finite:
    NaNs are not ordered.  Outside this module only the tests call it, as
    the sort-then-{!of_sorted} oracle for the in-place selection. *)

val of_sorted : float array -> float -> float
(** [of_sorted sorted q] with [0 < q <= 1].  Raises [Invalid_argument] on an
    empty array or out-of-range [q]. *)

val of_array : float array -> float -> float
(** The [q]-quantile of an unsorted array, selected in place (the array is
    left as it was).  Raises [Invalid_argument] on an empty array, an
    out-of-range [q] or a NaN sample. *)

val of_vec : Float_vec.t -> float -> float
(** {!of_array} over the vector's samples, read in place. *)

val of_vec_marked : Float_vec.t -> marks:Bytes.t -> marked:bool -> float -> float
(** [of_vec_marked vec ~marks ~marked q] is the [q]-quantile of the samples
    [i] of [vec] whose class bit equals [marked]: bit [i land 7] of byte
    [i lsr 3] of [marks], with bits past the end of [marks] reading as
    unset.  NaN when no sample is in the class.  Raises [Invalid_argument]
    on an out-of-range [q] (even for an empty class) or a NaN sample in the
    class. *)

val many_of_vec : Float_vec.t -> float list -> float list
(** {!of_vec} at each quantile. *)

val of_vecs : Float_vec.t array -> float -> float
(** The [q]-quantile of the union of the vectors' samples, equal to
    {!of_vec} over their concatenation, selected in place: nothing is
    copied, and each pass reads the vectors one after another.  Raises
    [Invalid_argument] when the vectors hold no sample, on an
    out-of-range [q] or a NaN sample. *)

val many_of_vecs : Float_vec.t array -> float list -> float list
(** {!of_vecs} at each quantile. *)

val mean_of_vec : Float_vec.t -> float
(** Arithmetic mean; 0 for an empty vector. *)

val mean_of_vecs : Float_vec.t array -> float
(** {!mean_of_vec} of the vectors' concatenation, bit for bit (the same
    additions in the same order), without building it. *)
