type t = {
  per_shard : Kvserver.Metrics.t array;
  shard_share : float array;
  issued : int;
  served_total : int;
  net_dropped : int;
  rx_dropped : int;
  shed_small : int;
  shed_large : int;
  expired_misses : int;
  in_flight_end : int;
  throughput_mops : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  worst_shard_p99_us : float;
  imbalance : float;
  stable : bool;
}

let aggregate ~shard_share results =
  let n = Array.length results in
  if n = 0 then invalid_arg "Cluster metrics: no shards";
  if Array.length shard_share <> n then
    invalid_arg "Cluster metrics: share/results length mismatch";
  let per_shard = Array.map fst results in
  let sum f = Array.fold_left (fun acc m -> acc + f m) 0 per_shard in
  let sumf f = Array.fold_left (fun acc m -> acc +. f m) 0.0 per_shard in
  let union = Stats.Float_vec.create () in
  Array.iter (fun (_, lat) -> Stats.Float_vec.append union lat) results;
  let qs =
    if Stats.Float_vec.length union = 0 then [ Float.nan; Float.nan; Float.nan ]
    else Stats.Quantile.many_of_vec union [ 0.5; 0.99; 0.999 ]
  in
  let p50_us, p99_us, p999_us =
    match qs with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  let worst =
    Array.fold_left
      (fun acc (m : Kvserver.Metrics.t) ->
        let p = m.Kvserver.Metrics.p99_us in
        if Float.is_nan p then acc
        else if Float.is_nan acc then p
        else Float.max acc p)
      Float.nan per_shard
  in
  let max_share = Array.fold_left Float.max 0.0 shard_share in
  let mean_share =
    Array.fold_left ( +. ) 0.0 shard_share /. float_of_int n
  in
  {
    per_shard;
    shard_share = Array.copy shard_share;
    issued = sum (fun m -> m.Kvserver.Metrics.issued);
    served_total = sum (fun m -> m.Kvserver.Metrics.served_total);
    net_dropped = sum (fun m -> m.Kvserver.Metrics.net_dropped);
    rx_dropped = sum (fun m -> m.Kvserver.Metrics.rx_dropped);
    shed_small = sum (fun m -> m.Kvserver.Metrics.shed_small);
    shed_large = sum (fun m -> m.Kvserver.Metrics.shed_large);
    expired_misses = sum (fun m -> m.Kvserver.Metrics.expired_misses);
    in_flight_end = sum (fun m -> m.Kvserver.Metrics.in_flight_end);
    throughput_mops = sumf (fun m -> m.Kvserver.Metrics.throughput_mops);
    mean_us =
      (if Stats.Float_vec.length union = 0 then Float.nan
       else Stats.Quantile.mean_of_vec union);
    p50_us;
    p99_us;
    p999_us;
    worst_shard_p99_us = worst;
    imbalance = (if mean_share > 0.0 then max_share /. mean_share else Float.nan);
    stable =
      Array.for_all (fun (m : Kvserver.Metrics.t) -> m.Kvserver.Metrics.stable) per_shard;
  }

let telescopes t =
  t.issued
  = t.served_total + t.net_dropped + t.rx_dropped + t.shed_small + t.shed_large
    + t.expired_misses + t.in_flight_end
  && Array.for_all Kvserver.Metrics.telescopes t.per_shard
