(** Fan-out multi-GET completion times: the tail-at-scale effect.

    A multi-GET of degree [k] issues [k] single-key GETs, routed to
    their shards, and completes when the slowest shard replies — its
    latency is the max over the involved shards.  With per-shard p99
    around [x], the p99 of a k-way fan-out approaches the per-shard
    [1 - 0.01/k] quantile, which is how a modest per-shard tail becomes
    the common case at scale (Dean & Barroso, "The Tail at Scale").

    {!measure} estimates the fan-out latency distribution empirically by
    seeded Monte-Carlo over the shards' recorded latency samples;
    test_cluster checks it against the closed-form iid order-statistics
    answer. *)

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
