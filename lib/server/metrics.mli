(** Results of one simulated run. *)

type t = {
  design : string;
  offered_mops : float;       (** configured arrival rate *)
  issued : int;               (** requests generated *)
  completed : int;            (** replies delivered inside the window *)
  throughput_mops : float;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float;
  small_p99_us : float;       (** 99p over requests for truly small items;
                                  [nan] when no samples *)
  large_p99_us : float;       (** 99p over requests for truly large items *)
  nic_tx_utilization : float; (** over the measurement window *)
  stable : bool;              (** backlog did not grow without bound *)
  per_core_ops : int array;
  per_core_packets : int array;
  final_large_cores : int;    (** Minos: n_large at end of run; others 0 *)
  final_threshold : float;    (** Minos: size threshold; [nan] otherwise *)
  p99_series : (float * float) list;
      (** per-window (start µs, p99 µs), when windowing was enabled *)
  large_core_series : (float * int) list;
      (** per-epoch (time µs, n_large), Minos only *)
  in_flight_end : int;
  mean_queue_wait_us : float;
      (** time from arrival to the start of service — where head-of-line
          blocking shows up *)
  mean_service_us : float; (** CPU occupancy per request *)
  mean_tx_wait_us : float;
      (** from end of service to the reply leaving the wire (queueing at
          the NIC + transmission) *)
  served_total : int;
      (** operations fully processed {e with a live item} over the whole
          run (incl. warmup); with the loss counters below it makes up
          the run's {!ledger} *)
  net_dropped : int;  (** lost by the (faulty) NIC before any queue *)
  rx_dropped : int;   (** tail-dropped at a full RX ring *)
  shed_small : int;   (** shed by admission control, small-classified *)
  shed_large : int;   (** shed by admission control, large-classified *)
  expired_misses : int;
      (** GETs processed but answered not-found because the item had
          expired, been evicted, or was never loaded (TTL / larger-than-
          memory scenarios); 0 otherwise *)
  expired_keys : int; (** items reclaimed past their TTL deadline *)
  evicted_keys : int; (** live items evicted by the memory budget *)
  cancelled : int;
      (** submitted requests the caller withdrew ({!Engine.cancel}): a
          queued one retires unserved, one in service has its reply
          suppressed.  Only a caller-fed engine (the hedged cluster) can
          cancel, so this is 0 in every single-engine run. *)
  lost : int;
      (** {!Engine.lost}: offered load that produced no reply (the NIC,
          RX-ring and both shed legs).  A lossy run can never masquerade
          as a healthy one: {!pp_row} appends the loss/goodput segment
          whenever this is nonzero. *)
}

val ledger : t -> Obs.Ledger.t
(** The fate ledger: [issued] against the legs [served] (= [served_total]),
    [net_dropped], [rx_dropped], [shed_small], [shed_large],
    [expired_misses], [cancelled] and [in_flight_end].  Every issued
    request meets exactly one of them, so it telescopes. *)

val shed_total : t -> int

val goodput_fraction : t -> float
(** Fraction of issued requests not lost ([1.0] for a healthy run). *)

val pp_row : Format.formatter -> t -> unit
(** One human-readable summary line. *)

val pp_breakdown : Format.formatter -> t -> unit
(** Verbose companion to {!pp_row}: per-class tails ([small_p99]/
    [large_p99]) plus the mean wait breakdown (queue / service / TX), the
    coarse engine-side counterpart of the per-span {!Obs.Anatomy}. *)
