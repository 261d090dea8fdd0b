type point = {
  fanout : int;
  p50_us : float;
  p99_us : float;
  mean_us : float;
}

let measure ~rng ~route ~sample_key ~latencies ?(trials = 20_000) ~fanouts () =
  if trials < 1 then invalid_arg "Fanout.measure: trials must be >= 1";
  let n_shards = Array.length latencies in
  let involved = Array.make n_shards false in
  let draw_max k =
    Array.fill involved 0 n_shards false;
    for _ = 1 to k do
      let shard = route (sample_key rng) in
      involved.(shard) <- true
    done;
    let m = ref Float.nan in
    for s = 0 to n_shards - 1 do
      if involved.(s) then begin
        let v = latencies.(s) in
        let len = Stats.Float_vec.length v in
        if len > 0 then begin
          let x = Stats.Float_vec.get v (Dsim.Rng.int rng len) in
          if Float.is_nan !m || x > !m then m := x
        end
      end
    done;
    !m
  in
  List.map
    (fun k ->
      if k < 1 then invalid_arg "Fanout.measure: fanout degree must be >= 1";
      let samples = Stats.Float_vec.create ~capacity:trials () in
      for _ = 1 to trials do
        let x = draw_max k in
        if not (Float.is_nan x) then Stats.Float_vec.push samples x
      done;
      if Stats.Float_vec.length samples = 0 then
        invalid_arg "Fanout.measure: no latency samples on any routed shard";
      match Stats.Quantile.many_of_vec samples [ 0.5; 0.99 ] with
      | [ p50_us; p99_us ] ->
          { fanout = k; p50_us; p99_us; mean_us = Stats.Quantile.mean_of_vec samples }
      | _ -> assert false)
    fanouts
