(** Composable workload scenarios and the scenario registry.

    A scenario is the universal workload currency: it composes the flat
    size/popularity/mutation profile ({!Spec.t}) with an arrival process
    ({!Arrival.t}), a TTL + expiry-sweep policy, an ordered-SCAN mix and a
    memory budget (for larger-than-memory runs with eviction).  Front ends
    — Experiment, Chaos, Cluster, Reshard, Hedge and the CLI — select
    workloads through the registry ({!find} / {!all}), mirroring
    {!Kvserver.Design}: each registered scenario carries a name, aliases,
    a one-line summary and the knobs it documents, and {!parse} turns a
    CLI string ["name,k=v,…"] into a ready scenario.

    The paper's original specs ([Spec.default] / [paper_scale] /
    [write_intensive]) are registered constructors whose extra features
    are all inert, so every golden produced through them is byte-identical
    to the pre-scenario code. *)

type t = {
  label : string;
  spec : Spec.t;
  arrival : Arrival.t;
  ttl_us : float option;    (** TTL attached to every PUT *)
  sweep_us : float option;  (** background expiry-sweep period; [None] =
                                lazy-on-read expiry only *)
  scan_ratio : float;       (** fraction of requests that are SCANs *)
  scan_len : int;           (** keys per SCAN *)
  mem_fraction : float option;
      (** memory budget as a fraction of the dataset's total value bytes;
          [Some f < 1.0] forces LRU-ish eviction *)
  replay : bool;
      (** run through a captured timed trace instead of live pacing *)
}

val of_spec : ?label:string -> Spec.t -> t
(** Wrap a flat spec: Poisson arrivals, no TTL, no scans, no budget — the
    scenario equivalent of the original API, with byte-identical runs. *)

val default : t

val validate : t -> (unit, string) result

val flat : t -> (Spec.t, string) result
(** The flat request mix, when every scenario extra is inert (Poisson,
    no TTL / scans / budget / replay) — i.e. the run reduces to the
    original spec path.  Otherwise an error naming the active extras:
    runners that run only the mix (sweep, numa, cluster, reshard, hedge,
    through [Minos.Run.flat]) refuse such a scenario
    rather than silently drop its extras. *)

val generator : ?seed:int -> t -> Dataset.t -> Generator.t
(** A generator for the scenario's mix (including its scan knobs). *)

val capture : ?seed:int -> t -> Dataset.t -> rate_mops:float -> n:int -> Trace.t
(** Draw [n] requests and timestamp them under the scenario's arrival
    process at the given base rate (Lewis–Shedler thinning): a timed
    trace that replays the scenario deterministically per [seed]. *)

(** {1 Registry} *)

type info = {
  name : string;
  aliases : string list;
  summary : string;
  knobs : (string * string) list; (** knob name, one-line doc *)
  base : t;
}

val common_knobs : (string * string) list
(** The [k=v] overrides {!parse} accepts on every scenario. *)

val all : unit -> info list
(** Registration order; builtins first: default, paper, write-intensive,
    diurnal, bursts, ttl-churn, scan-heavy, cold-tier. *)

val find : string -> info option
(** Case-insensitive lookup by name or alias. *)

val parse : string -> (t, string) result
(** ["name,k=v,…"] → scenario: {!find} the entry, apply the [k=v]
    overrides to its base scenario and validate. *)
