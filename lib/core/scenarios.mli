(** The scenario suite: every registry scenario that exercises a feature
    beyond the paper's static Poisson mix, run size-aware vs keyhash.

    Each point is one {!Experiment.run_spec} call, so a scenario gets the
    full compilation: diurnal/burst arrivals become pacing, TTL and memory
    budgets attach the residency model, scans flow through dispatch and
    the cost model, and [cold-tier] runs through a captured timed trace.
    Points fan out over {!Par} and derive their seeds from the point, so
    results are byte-identical at any [MINOS_JOBS].

    The headline per scenario is the size-aware vs keyhash p99 — the
    paper's claim carried into richer operating regimes — plus each
    row's fate ledger ({!Kvserver.Metrics.ledger}, with the
    [expired_misses] leg), checked to telescope. *)

type row = {
  scenario : string;  (** registry name, e.g. ["ttl-churn"] *)
  design : string;    (** {!Kvserver.Design.name}: ["Minos"] or ["HKH"] *)
  offered_mops : float;
  metrics : Kvserver.Metrics.t;
}

type t = { seed : int; offered_mops : float; rows : row list }

val suite : string list
(** [["diurnal"; "bursts"; "ttl-churn"; "scan-heavy"; "cold-tier"]]. *)

val run : ?names:string list -> Run.t -> t
(** Run [names] (default {!suite}) × [minos; hkh] at the run's scale,
    seed and offered load (default 2.5 Mops); each scenario brings its
    own workload.  Raises [Invalid_argument] on an unregistered name. *)

val check : t -> (unit, string) result
(** The run's headline claims: every row telescopes; under [scan-heavy]
    the size-aware p99 is below keyhash; under [cold-tier] every design
    misses and evicts; under [ttl-churn] every design expires keys.
    Those three scenarios must be in the run.  [Error] names the first
    failed claim. *)

val print : t -> unit
(** One table per scenario with the size-aware/keyhash p99 ratio note. *)

val to_json : t -> Obs.Json.t
(** The BENCH_scenarios.json payload: per scenario and design, the
    tails, residency counters and the row's ["ledger"]. *)

val report : t Run.report
(** {!print}, {!to_json} and {!check} under the noun ["scenario"]. *)
