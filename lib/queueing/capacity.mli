(** Closed-form capacity and bottleneck analysis of the simulated server.

    These are the back-of-the-envelope computations a systems designer
    would do before running anything: expected bytes and CPU per
    operation, NIC-bound and CPU-bound throughput ceilings per design, and
    the head-of-line exposure of keyhash sharding.  The test suite checks
    the discrete-event simulator against them, and EXPERIMENTS.md uses
    them to explain where each design saturates. *)

type op_profile = {
  mean_cpu_us : float;        (** CPU per operation (request mix average) *)
  mean_tx_bytes : float;      (** wire bytes transmitted per operation *)
  mean_rx_bytes : float;      (** wire bytes received per operation *)
  mean_service_latency_us : float;
      (** no-load response time: pipeline + CPU + reply wire time *)
}

val profile : Workload.Spec.t -> Kvserver.Cost_model.t -> op_profile
(** Expectations under the spec's size distribution and GET:PUT mix
    (replies always sent, i.e. sampling = 1). *)

val nic_bound_mops : Workload.Spec.t -> Kvserver.Cost_model.t -> gbps:float -> float
(** Throughput at which the TX line saturates. *)

val cpu_bound_mops : Workload.Spec.t -> Kvserver.Cost_model.t -> cores:int -> float
(** Throughput at which [cores] saturate. *)

val minos_small_pool_bound_mops :
  Workload.Spec.t -> Kvserver.Cost_model.t -> cores:int -> n_small:int -> float
(** Minos-specific ceiling: the small pool must absorb ~99 % of requests
    plus profiling; usually the binding CPU constraint for Minos.  Only
    test_capacity calls it, as the oracle the simulated Minos peak is
    checked against. *)

val predicted_peak_mops :
  Workload.Spec.t -> Kvserver.Cost_model.t -> cores:int -> gbps:float -> float
(** min(NIC bound, CPU bound): where the throughput curves flatten.  Only
    test_capacity calls it, as the oracle the simulated peaks are checked
    against. *)

val hol_exposure :
  Workload.Spec.t -> Kvserver.Cost_model.t -> cores:int -> offered_mops:float -> float
(** For keyhash sharding: the probability that an arriving request finds a
    large request in service (or queued) on its own core — the fraction of
    requests whose latency is polluted by head-of-line blocking.  When
    this exceeds 1 %, the 99th percentile reflects large-request service
    times; the paper's §2.2 point in one number. *)

val expected_large_cores :
  Workload.Spec.t -> Kvserver.Cost_model.t -> cores:int -> percentile:float -> int
(** The n_large the control loop should converge to under the paper's
    packets cost function: cores minus the ceiling of the small cost
    share.  (0 means standby mode.) *)
