(** Explicit key-range sharding over the dense key space [0, n_keys).

    Each server owns one contiguous id range; {!lookup} is a binary
    search over the range starts.  Under a skewed workload equal-width
    ranges produce unequal load, which is the point: {!rebalance} takes
    observed per-bucket load weights and re-cuts the ranges so each
    server carries (approximately) the same weight — the between-epoch
    rebalance step of a cluster run. *)

type t

val create : ?starts:int array -> servers:int -> n_keys:int -> unit -> t
(** [starts], when given, must have length [servers], begin with 0 and be
    strictly increasing below [n_keys]; server [i] owns
    [[starts.(i), starts.(i+1))].  Default: equal-width ranges.
    [servers] must be in [1, n_keys]. *)

val lookup : t -> int -> int
(** [lookup t key_id] is the owning server.  Raises [Invalid_argument]
    when [key_id] is outside [0, n_keys). *)

(** Why a probe-weight array cannot drive a {!rebalance}: degenerate
    inputs (an all-zero or negative/NaN probe) used to be silently
    accepted and could yield a stale or empty cut — now they are typed
    errors the caller must handle. *)
type weight_error =
  | All_zero  (** the probe saw no load at all — nothing to cut on *)
  | Negative of int  (** bucket index with a negative weight *)
  | Not_finite of int  (** bucket index with a NaN/infinite weight *)
  | Too_few_buckets of { buckets : int; servers : int }
  | Too_many_buckets of { buckets : int; n_keys : int }

exception Bad_weights of weight_error

val rebalance : t -> weights:float array -> t
(** [rebalance t ~weights] re-cuts the ranges from observed load.
    [weights.(b)] is the load seen in bucket [b] of the key space (the
    array length sets the bucket count; buckets are equal-width in key
    ids).  Cuts are placed greedily at bucket granularity so each
    server's cumulative weight approaches [total / servers].  Raises
    {!Bad_weights} when {!check_weights} rejects the array (all-zero,
    negative or non-finite weights, bucket count out of range). *)
