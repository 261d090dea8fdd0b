(** Fan-out multi-GET completion times: the tail-at-scale effect.

    A multi-GET of degree [k] issues [k] single-key GETs, routed to
    their shards, and completes when the slowest shard replies — its
    latency is the max over the involved shards.  With per-shard p99
    around [x], the p99 of a k-way fan-out approaches the per-shard
    [1 - 0.01/k] quantile, which is how a modest per-shard tail becomes
    the common case at scale (Dean & Barroso, "The Tail at Scale").

    {!measure} estimates the fan-out latency distribution empirically by
    seeded Monte-Carlo over the shards' recorded latency samples;
    {!analytic_max_quantile} gives the closed-form iid order-statistics
    answer the tests compare against. *)

type point = {
  fanout : int;
  p50_us : float;
  p99_us : float;
  mean_us : float;
}

val measure :
  rng:Dsim.Rng.t ->
  route:(int -> int) ->
  sample_key:(Dsim.Rng.t -> int) ->
  latencies:Stats.Float_vec.t array ->
  ?trials:int ->
  fanouts:int list ->
  unit ->
  point list
(** For each degree [k] in [fanouts], run [trials] (default 20_000)
    simulated multi-GETs: draw [k] keys with [sample_key], route each to
    its shard, draw one latency sample per {e distinct} involved shard
    from that shard's recorded distribution, and record the max.  Shards
    with no recorded samples contribute nothing.  All draws come from
    [rng], so results are a pure function of the RNG state and inputs.
    Raises [Invalid_argument] if every routed shard is empty. *)

val analytic_max_quantile : float array -> k:int -> q:float -> float
(** [analytic_max_quantile sorted ~k ~q]: the [q]-quantile of the max of
    [k] iid draws from the empirical distribution given by [sorted]
    (ascending), i.e. the [q{^ 1/k}]-quantile of the base distribution —
    the inverse-CDF identity [P(max <= x) = F(x){^ k}].  Only
    test_cluster calls it, as the oracle {!measure}'s fan-out p99 is
    checked against. *)

val analytic_hedge_quantile : float array -> d:float -> q:float -> float
(** [analytic_hedge_quantile sorted ~d ~q]: the [q]-quantile of a hedged
    request's completion time [min (X{_1}, d + X{_2})] — primary issued
    at 0, backup after delay [d], both latencies iid draws from the
    empirical distribution given by [sorted] (ascending).  The hedged
    CDF is [G(x) = F(x) + (1 - F(x)) * F(x - d)]: for [x < d] only the
    primary can have finished, beyond that the backup cuts the tail.
    [G] is a step function jumping only at the sample points and their
    [d]-shifts, so the quantile is found by exact inversion over that
    candidate set.  [d = 0] degenerates to min-of-two (tied requests);
    large [d] recovers the unhedged quantile.  Only test_cluster calls
    it, as the closed-form oracle of a hedge's gain. *)

val sample_hedge_quantile :
  rng:Dsim.Rng.t ->
  float array ->
  d:float ->
  q:float ->
  ?trials:int ->
  unit ->
  float
(** Monte-Carlo estimate of {!analytic_hedge_quantile}: [trials]
    (default 20_000) draws of [min (X{_1}, d + X{_2})] resampled from
    [sorted] with [rng].  Only test_cluster calls it, as the Monte-Carlo
    cross-check that {!analytic_hedge_quantile} inverts the right CDF. *)
