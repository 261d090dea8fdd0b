(** Aggregated results of one cluster run, with per-shard breakdown.

    Cluster-level quantiles come from the union of the shards' raw
    latency samples (each shard contributes in proportion to the traffic
    it actually served, so the union is the client-observed single-key
    distribution).  Loss accounting sums the per-shard counters, and
    because every {!Kvserver.Metrics.t} telescopes exactly, so does the
    cluster total:

    [issued = served_total + net_dropped + rx_dropped + shed_small
            + shed_large + expired_misses + in_flight_end]

    summed over shards — checked by {!telescopes}. *)

type t = {
  per_shard : Kvserver.Metrics.t array;
  shard_share : float array;  (** routed traffic fraction per shard *)
  issued : int;
  served_total : int;
  net_dropped : int;
  rx_dropped : int;
  shed_small : int;
  shed_large : int;
  expired_misses : int;
  in_flight_end : int;
  throughput_mops : float;    (** sum of per-shard throughputs *)
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  worst_shard_p99_us : float; (** max over shards of per-shard p99 *)
  imbalance : float;          (** max shard share / mean shard share *)
  stable : bool;              (** every shard stable *)
}

val aggregate :
  shard_share:float array ->
  (Kvserver.Metrics.t * Stats.Float_vec.t) array ->
  t
(** [aggregate ~shard_share results] combines per-shard metrics and raw
    latency vectors (as returned by the per-shard engine runs).  The
    latency vectors are only read, not retained. *)

val telescopes : t -> bool
(** Exact cluster-wide loss accounting, and per shard
    ({!Kvserver.Metrics.telescopes}). *)
