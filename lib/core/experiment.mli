(** Running a (design × workload × arrival rate) point.

    This is the library's front door for the evaluation: pick a design,
    a workload spec and an offered load, get back {!Kvserver.Metrics.t}.
    Datasets are memoized across runs (their sizes depend only on the
    dataset-shape fields of the spec, not on the request mix); the cache
    is mutex-guarded, so runs may execute on any domain.

    Designs are {!Kvserver.Design} values — first-class modules looked up
    through the registry, so anything {!Kvserver.Design.register}ed is
    runnable here without new cases anywhere.

    {!sweep} fans its independent points out over {!Par}'s domain pool.
    Every point owns its own simulator and RNG streams and derives its
    seeds from the job, so parallel results are bit-identical to
    sequential ([MINOS_JOBS=1]) ones. *)

type design = Kvserver.Design.t

val all_designs : design list
(** The registry's designs ({!Kvserver.Design.all}): builtins
    [minos; hkh; hkh_ws; sho] plus anything registered since. *)

val design_name : design -> string

val design_of_name : string -> design option
(** Case-insensitive registry lookup; accepts ["minos"], ["hkh"],
    ["hkh+ws"/"hkh_ws"/"ws"], ["sho"] and any registered alias. *)

val maker : design -> Kvserver.Engine.t -> Kvserver.Engine.design
(** [Kvserver.Design.make]. *)

(** Time parameters for one simulated run; see DESIGN.md on time scaling
    versus the paper's 60-second runs. *)
type scale = {
  duration_us : float;
  warmup_us : float;
  epoch_us : float;
  slo_iters : int;   (** bisection iterations for SLO searches *)
  phase_us : float;  (** dynamic-workload phase length (paper: 20 s) *)
  window_us : float; (** p99 reporting window (paper: 1 s) *)
}

val full_scale : scale
(** 400 ms runs (150 ms warm-up), 50 ms epochs, 7 bisection iterations,
    2 s dynamic phases with 200 ms windows. *)

val quick_scale : scale
(** Roughly 4× cheaper; used by tests and [--quick] benches. *)

val scale_of : quick:bool -> scale
(** {!quick_scale} for [--quick] / [QUICK=1] runs, else {!full_scale}. *)

val dataset_for : Workload.Spec.t -> Workload.Dataset.t
(** Memoized dataset construction: {!Workload.Dataset.create} at the
    default seed, its size draw and zipf normalizer run as {!Par} tasks
    (bit-identical to a sequential build). *)

val config_of_scale : ?base:Kvserver.Config.t -> scale -> Kvserver.Config.t

(** Typed run specification: one record holds everything about a point.
    Build one with {!Spec.make} and refine it with the [with_*] builders
    (each returns an updated copy, so they chain with [|>]):

    {[
      Experiment.Spec.make Kvserver.Design.minos
      |> Experiment.with_scale Experiment.quick_scale
      |> Experiment.Spec.with_load 3.0
      |> Experiment.Spec.with_seed 7
      |> Experiment.run_spec
    ]} *)
module Spec : sig
  type t = {
    design : Kvserver.Design.t;
    workload : Workload.Scenario.t;
    offered_mops : float;
    cfg : Kvserver.Config.t;
    seed : int;
    dynamic : Workload.Dynamic.t option;
    trace : Workload.Trace.t option;
        (** replay these requests instead of drawing from the generator *)
    obs : Obs.Instrument.t option;
    fault : Fault.Inject.t option;
  }

  val make : Kvserver.Design.t -> t
  (** Defaults: the default workload scenario, 3.0 Mops offered load,
      {!config_of_scale}[ full_scale], seed 1, no dynamic phase plan, no
      trace, no recorder, no fault plan. *)

  val with_workload : Workload.Scenario.t -> t -> t
  (** Select the workload as a scenario — registry entries
      ({!Workload.Scenario.find}) or hand-built records both work. *)

  val with_workload_spec : Workload.Spec.t -> t -> t
  (** Wrap a flat spec ({!Workload.Scenario.of_spec}); runs exactly as the
      pre-scenario API did. *)

  val with_load : float -> t -> t
  (** Offered load in million ops/s. *)

  val with_cfg : Kvserver.Config.t -> t -> t

  val with_seed : int -> t -> t

  val with_dynamic : Workload.Dynamic.t -> t -> t
  val with_trace : Workload.Trace.t -> t -> t
  val with_obs : Obs.Instrument.t -> t -> t
  val with_fault : Fault.Inject.t -> t -> t
end

val with_scale : scale -> Spec.t -> Spec.t
(** Rewrite the spec's config time parameters via {!config_of_scale}
    (keeping its other fields). *)

val run_spec : Spec.t -> Kvserver.Metrics.t
(** Simulate one point.  The spec's workload scenario is compiled onto the
    engine: a non-Poisson arrival process becomes a pacing function, a TTL
    or memory budget attaches a {!Kvserver.Residency} model (populated in
    key order up to the budget, with the background sweep scheduled when
    the scenario asks for one), scan knobs flow into the generator, and a
    [replay] scenario first captures a timed trace
    ({!Workload.Scenario.capture}, seeded from the spec's seed) and runs
    through it.  Plain scenarios take none of these paths and reproduce
    the pre-scenario byte streams exactly.

    [spec.trace] replays a captured trace in place of the generator: a
    timed trace at its recorded pacing, an untimed one through the
    arrival loop, each looping if the run outlasts it.  The scenario's
    TTL, sweep and memory budget apply to the replayed requests; its mix
    knobs do not (the trace is the mix).  [spec.obs] attaches a flight
    recorder (see {!Kvserver.Engine.create}); sampling draws from the
    recorder's own stream, so an instrumented run reports the same
    metrics as an uninstrumented one.  [spec.fault] runs the point under a
    deterministic fault plan ({!Fault.Inject.create}); each run needs its
    own injector (its RNG advances during the run).

    Raises [Invalid_argument] on a scenario that fails
    {!Workload.Scenario.validate}, and on a combination the engine cannot
    honour, naming it: an empty trace, a trace whose key ids run past the
    dataset's [n_keys], a timed trace under a non-Poisson arrival process,
    a trace together with a [replay] scenario or with a dynamic phase plan
    (the plan varies the generator, which the trace replaces; the engine
    refuses a plan with a [replay] scenario's capture alike). *)

val run_spec_raw : Spec.t -> Kvserver.Metrics.t * Stats.Float_vec.t
(** Like {!run_spec}, additionally returning the raw latency samples (µs)
    — for analyses that need the full distribution (fan-out, NUMA and
    cluster merging). *)

val sweep :
  ?cfg:Kvserver.Config.t ->
  ?sho_best:bool ->
  design ->
  Workload.Spec.t ->
  loads_mops:float list ->
  (float * Kvserver.Metrics.t) list
(** One {!run_spec} per offered load, computed in parallel across domains
    (results in load order, identical to a sequential run).  With
    [sho_best], a design supporting the [Handoff_cores] knob runs with 1,
    2 and 3 handoff cores (those below [cfg.cores]) per load point and
    keeps the best: the paper reports SHO's best configuration per
    workload (§5.2).  "Best" prefers stability, then higher throughput,
    then lower p99. *)
