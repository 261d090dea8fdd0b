(** Chaos harness: the evaluation under deterministic fault plans.

    Each chaos point runs one fault plan against three server variants at
    the same offered load and seed:

    - {b Minos+guard} — size-aware sharding with every robustness feature
      on: watchdog core exclusion, shed-large-first admission control and
      threshold clamping;
    - {b Minos} — the plain paper design, faults on, guards off;
    - {b HKH+WS} — the strongest size-unaware baseline, with the same
      admission control (it has no watchdog or threshold to guard).

    The contract mirrors the healthy-path determinism guarantee: a fixed
    [(plan, seed)] yields byte-identical metrics across reruns, because
    the injector owns its own SplitMix64 stream and every fault decision
    is a pure function of [(event windows, stream, arrival order)]. *)

type row = {
  plan : string;    (** canned plan name or the file-loaded plan's name *)
  label : string;   (** server variant, e.g. ["Minos+guard"] *)
  offered_mops : float;  (** offered load this row ran at *)
  metrics : Kvserver.Metrics.t;
}

type t = { seed : int; rows : row list }

val plan_load : ?base:float -> string -> float
(** The offered load a canned plan runs at, scaled off [base] (default
    4.0 Mops): [loss10] at 1.75x (the retransmission storm only separates
    the variants near saturation), [overload] at 2x (the squeezed ring
    must be pushed past its service rate or nothing is shed), everything
    else at [base].  Outside this module only test_fault calls it, to
    check the scaling {!run} applies. *)

val guard_config : Kvserver.Config.t -> Kvserver.Config.t
(** The hardened configuration: watchdog on, shed watermark 256, threshold
    clamp 0.5, RX capacity bounded at 4096.  Outside this module only
    test_fault calls it, to run the guarded variant under a plan of its
    own. *)

val run_plan : Run.t -> Fault.Plan.t -> t
(** Run the three variants under one plan (in parallel over {!Par}) at
    the run's offered load (default 4.0 Mops).  Each variant gets a fresh
    injector over the same plan and seed.  The run's workload composes
    with the faults: TTL churn or an arrival ramp under a fault plan is a
    valid point. *)

val run : ?plans:string list -> Run.t -> t
(** All canned plans (default {!Fault.Plan.canned_names}), three variants
    each.  Plan windows are derived from the run's scale; each plan runs
    at {!plan_load} scaled off the run's offered load. *)

val report : t Run.report
(** The runner's result under the noun ["chaos"].
    - [check]: the run's headline claims: under [core-stall] and [loss10]
      the guarded Minos p99 beats the plain one, and under [overload] the
      guarded variant sheds something and stays stable.  Those three plans
      must be in the run.  [Error] names the first failed claim.
    - [print]: render as report tables, one per plan.
    - [to_json]: the BENCH_chaos.json payload: per plan and variant, p99 /
      throughput / goodput and the run's ["ledger"], plus the seed for
      rerun verification. *)
