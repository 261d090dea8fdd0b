type t = {
  per_shard : Kvserver.Metrics.t array;
  shard_share : float array;
  ledger : Obs.Ledger.t;
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
  let sumf f = Array.fold_left (fun acc m -> acc +. f m) 0.0 per_shard in
  (* The union of the shards' samples, read in place. *)
  let union = Array.map snd results in
  let empty = Array.for_all (fun lat -> Stats.Float_vec.length lat = 0) union in
  let qs =
    if empty then [ Float.nan; Float.nan; Float.nan ]
    else Stats.Quantile.many_of_vecs union [ 0.5; 0.99; 0.999 ]
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
    ledger = Obs.Ledger.merge (Array.to_list (Array.map Kvserver.Metrics.ledger per_shard));
    throughput_mops = sumf (fun m -> m.Kvserver.Metrics.throughput_mops);
    mean_us = (if empty then Float.nan else Stats.Quantile.mean_of_vecs union);
    p50_us;
    p99_us;
    p999_us;
    worst_shard_p99_us = worst;
    imbalance = (if mean_share > 0.0 then max_share /. mean_share else Float.nan);
    stable =
      Array.for_all (fun (m : Kvserver.Metrics.t) -> m.Kvserver.Metrics.stable) per_shard;
  }

let check t =
  let rec shard s =
    if s = Array.length t.per_shard then Ok ()
    else
      match Obs.Ledger.check (Kvserver.Metrics.ledger t.per_shard.(s)) with
      | Ok () -> shard (s + 1)
      | Error gap -> Error ("shard " ^ string_of_int s ^ ": " ^ gap)
  in
  shard 0
