(** Maximum throughput under a tail-latency SLO (§6.3).

    The paper's headline metric: the largest arrival rate at which the
    99th-percentile latency stays within X times the mean service time.
    Found by bisection on the offered load, treating a run as satisfying
    the SLO when it is stable and its p99 is within the bound. *)

type result = {
  max_mops : float;           (** 0.0 when even the lowest load misses *)
  metrics : Kvserver.Metrics.t option; (** the run at [max_mops] *)
  evaluations : int;
}

val search :
  eval:(float -> Kvserver.Metrics.t) ->
  slo_p99_us:float ->
  lo_mops:float ->
  hi_mops:float ->
  iters:int ->
  result
(** [search ~eval ~slo_p99_us ~lo_mops ~hi_mops ~iters] bisects on
    \[lo, hi\].  [eval] runs one simulation at the given rate.  Assumes p99
    is (noisily) nondecreasing in load, which holds for these systems.

    The two bracket endpoints are evaluated eagerly, through {!Par} —
    [eval] must therefore be domain-safe ({!Experiment.run_spec} closures
    are).  The bisection itself is inherently sequential.  Results are
    identical whether or not domains are available.  Production code
    reaches it through {!max_under_slo}; the tests call it directly with
    synthetic [eval] functions to check the bisection. *)

val max_under_slo : Experiment.Spec.t -> slo_us:float -> iters:int -> result
(** The paper's search (Figs 6–7) for one point: bisect the spec's
    offered load on \[0.25, 8\] Mops through {!Experiment.run_spec}.  A
    design supporting the [Handoff_cores] knob (SHO) first picks its
    handoff core count, 1 to 3, by the most stable and then highest
    throughput at 3 Mops, and keeps it fixed during the bisection; those
    three runs are not counted in [evaluations]. *)
