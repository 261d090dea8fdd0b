(** Aggregated results of one cluster run, with per-shard breakdown.

    Cluster-level quantiles come from the union of the shards' raw
    latency samples (each shard contributes in proportion to the traffic
    it actually served, so the union is the client-observed single-key
    distribution).  The cluster's fate ledger is the merge of the
    shards' {!Kvserver.Metrics.ledger}s, so it telescopes whenever
    every shard's does; {!check} checks each shard, so gaps of opposite
    sign on two shards cannot cancel in the merge. *)

type t = {
  per_shard : Kvserver.Metrics.t array;
  shard_share : float array;  (** routed traffic fraction per shard *)
  ledger : Obs.Ledger.t;      (** {!Obs.Ledger.merge} of the shard ledgers *)
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

val check : t -> (unit, string) result
(** {!Obs.Ledger.check} of every shard's ledger; the first error is
    prefixed ["shard s: "]. *)
