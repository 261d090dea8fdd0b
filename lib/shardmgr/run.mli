(** The cluster run: static sharding and elastic resharding alike.

    One engine per server id the table ever routes to (base membership
    plus every plan-allocated id).  Each engine replays the shared
    seeded request stream thinned to the keys the {!Table} routes to it
    at the request's simulated arrival time: routing a Poisson stream
    splits it into independent Poisson streams, so each server runs as
    its own engine at its routed share of the offered load.  Its offered
    rate follows the plan through the engine's pacing hook (a
    not-yet-added server parks at rate 0).  Under {!Plan.empty} this is
    the static cluster.

    Deterministic: with a fixed [(seed, table)] the result is
    bit-identical at any [MINOS_JOBS]. *)

type t = {
  design_name : string;
  seed : int;
  metrics : Kvcluster.Metrics.t;
  latencies : Stats.Float_vec.t array;
      (** each engine's raw latency samples ({!Kvcluster.Fanout.measure}'s
          input) *)
  p99_series : (float * float) list;
      (** cluster-level [(window start, p99)] across all engines *)
  shard_series : (float * float) list array;
      (** per-engine p99 series — {!Manager.decide_all}'s input *)
  mig_p99_us : float;
      (** worst window p99 inside a migration window (nan if none) *)
  steady_p99_us : float;  (** worst window p99 outside them *)
  protocol : Protocol.result;  (** key-conservation check of the table *)
}

val run :
  ?seed:int ->
  ?fault:Fault.Plan.t ->
  ?instrument:(int -> Obs.Instrument.t) ->
  ?map:((int -> Kvserver.Metrics.t * Stats.Float_vec.t * Stats.Windowed.window list) ->
       int list ->
       (Kvserver.Metrics.t * Stats.Float_vec.t * Stats.Windowed.window list) list) ->
  cfg:Kvserver.Config.t ->
  design:Kvserver.Design.t ->
  workload:Workload.Spec.t ->
  table:Table.t ->
  unit ->
  t
(** [run ~cfg ~design ~workload ~table ()] simulates every engine and
    aggregates.  [seed] (1) must match the one the table was compiled
    with (it seeds the shared request stream, per-engine config
    perturbation and the protocol check).  [fault] attaches a per-engine
    {!Fault.Inject} with decorrelated seeds — each engine is created
    with its cluster [~server] id, so the plan's
    [kill-server]/[recover-server] windows crash the matching engine's
    NIC, and the same plan overlays crashes on the key-level
    {!Protocol.check} audit; [instrument] attaches a
    flight recorder per engine; [map] substitutes a parallel map
    ({!Minos.Par.map_list}) and must preserve order and length.  Raises
    [Invalid_argument] when [cfg.duration_us] differs from the
    table's. *)
