(** Multi-NUMA-domain operation (§3).

    "Minos can seamlessly scale to multiple NUMA domains by running an
    independent set of small and large cores within each NUMA domain, and
    by having clients send requests to the NUMA domain that stores the
    target key."  We model exactly that: each domain is an independent
    server instance (its own cores, RX queues, TX line and control loop)
    over a disjoint slice of the key space; clients route by key, so each
    domain sees [1/domains] of the offered load.

    The combined latency distribution is the union of the per-domain
    distributions (computed from raw samples, not by averaging
    percentiles). *)

type result = {
  per_domain : Kvserver.Metrics.t list;
  total_throughput_mops : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  stable : bool; (** all domains stable *)
}

val run : domains:int -> Run.t -> result
(** [run ~domains r] simulates [domains] independent instances of the
    run's design, each with the per-domain share of the keys of its flat
    mix ({!Run.flat}) and of its offered load (default 3.0 Mops, the
    total across domains), and combines the results. *)
