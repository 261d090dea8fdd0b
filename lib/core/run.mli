(** One run description for every experiment runner.

    Each point of the evaluation is a design × workload × load at some
    scale and seed.  The runners ({!Chaos}, {!Cluster}, {!Reshard},
    {!Hedge}, {!Scenarios}, {!Numa}, {!Obs_report}) take that point as
    one {!t}, plus only the knobs that are theirs (a topology, a plan).
    Each runner owns its defaults for what the record leaves open: its
    engine configuration derived from [scale], and its offered load when
    [offered_mops] is [None].  [minos] builds the record from its shared
    flags and [bench] from [QUICK]; {!emit} is the one place a report,
    its JSON record and its trace note are written. *)

type t = {
  scale : Experiment.scale;  (** time parameters of every engine *)
  seed : int;
  workload : Workload.Scenario.t;
  design : Kvserver.Design.t;
  baseline : Kvserver.Design.t;  (** what cluster and reshard compare against *)
  offered_mops : float option;  (** [None]: the runner's own load *)
  json : string option;  (** where {!emit} writes the run record *)
  trace_out : string option;  (** where the runner writes its Chrome trace *)
}

val default : t
(** {!Experiment.full_scale}, seed 1, {!Workload.Scenario.default},
    {!Kvserver.Design.minos} against {!Kvserver.Design.hkh}, the runner's
    own load, no JSON and no trace. *)

val config : t -> Kvserver.Config.t
(** {!Experiment.config_of_scale} of the run's scale. *)

val flat : t -> Workload.Spec.t
(** The workload's flat request mix ({!Workload.Scenario.flat}), for the
    runners that run only the mix (sweep, numa, cluster, reshard,
    hedge).  Raises [Invalid_argument] naming the
    extras of a scenario that has any: such a run is refused, not
    reduced to its mix. *)

val spec : t -> Experiment.Spec.t
(** The single-engine point the run describes: its design, workload,
    scale and seed, at its offered load or {!Experiment.Spec.make}'s.
    [minos run], [slo], [obs] and [trace --replay] evaluate through it,
    scenario extras included. *)

(** What {!emit} needs to write a runner's result, and the claims
    [bench] gates it on. *)
type 'a report = {
  noun : string;  (** names the result in the ["[… written to …]"] lines *)
  print : 'a -> unit;
  to_json : 'a -> Obs.Json.t;
  check : 'a -> (unit, string) result;
}

val emit : t -> 'a report -> 'a -> unit
(** Print the report, then ["[<noun> trace written to <file>]"] when the
    run wrote a trace, then write the JSON record to [json] when it is
    set and print ["[<noun> results written to <file>]"]. *)
