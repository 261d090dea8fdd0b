type t = {
  design : string;
  offered_mops : float;
  issued : int;
  completed : int;
  throughput_mops : float;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float;
  small_p99_us : float;
  large_p99_us : float;
  nic_tx_utilization : float;
  stable : bool;
  per_core_ops : int array;
  per_core_packets : int array;
  final_large_cores : int;
  final_threshold : float;
  p99_series : (float * float) list;
  large_core_series : (float * int) list;
  in_flight_end : int;
  mean_queue_wait_us : float;
  mean_service_us : float;
  mean_tx_wait_us : float;
  served_total : int;
  net_dropped : int;
  rx_dropped : int;
  shed_small : int;
  shed_large : int;
  expired_misses : int;
  expired_keys : int;
  evicted_keys : int;
  cancelled : int;
  lost : int;
}

let ledger t =
  Obs.Ledger.make ~issued:t.issued
    [
      ("served", t.served_total);
      ("net_dropped", t.net_dropped);
      ("rx_dropped", t.rx_dropped);
      ("shed_small", t.shed_small);
      ("shed_large", t.shed_large);
      ("expired_misses", t.expired_misses);
      ("cancelled", t.cancelled);
      ("in_flight_end", t.in_flight_end);
    ]

let shed_total t = Obs.Ledger.sum (ledger t) [ "shed_small"; "shed_large" ]

let goodput_fraction t =
  if t.issued = 0 then 1.0
  else float_of_int (t.issued - t.lost) /. float_of_int t.issued

let pp_row fmt t =
  Format.fprintf fmt
    "%-10s offered=%.2fM tput=%.2fM mean=%.1fus p50=%.1f p99=%.1f p999=%.1f nic=%.0f%%%s"
    t.design t.offered_mops t.throughput_mops t.mean_us t.p50_us t.p99_us t.p999_us
    (100.0 *. t.nic_tx_utilization)
    (if t.stable then "" else " UNSTABLE");
  if t.lost > 0 then
    Format.fprintf fmt " lost: net=%d ring=%d shed=%d(%dL) goodput=%.1f%%"
      t.net_dropped t.rx_dropped (shed_total t) t.shed_large
      (100.0 *. goodput_fraction t);
  if t.expired_misses > 0 || t.expired_keys > 0 || t.evicted_keys > 0 then
    Format.fprintf fmt " residency: miss=%d expired=%d evicted=%d" t.expired_misses
      t.expired_keys t.evicted_keys

let pp_breakdown fmt t =
  Format.fprintf fmt
    "%-10s small_p99=%.1fus large_p99=%.1fus wait: queue=%.1f service=%.1f tx=%.1f (mean us)"
    t.design t.small_p99_us t.large_p99_us t.mean_queue_wait_us t.mean_service_us
    t.mean_tx_wait_us
