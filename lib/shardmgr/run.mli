(** The one cluster runner: static sharding, elastic resharding and
    replicated tail-cutting, picked by what the caller passes.

    Without a router, one engine per server id the table ever routes to
    (base membership plus every plan-allocated id).  Each engine replays
    the shared seeded request stream thinned to the keys the {!Table}
    routes to it at the request's simulated arrival time: routing a
    Poisson stream splits it into independent Poisson streams, so each
    server runs as its own engine at its routed share of the offered
    load.  Its offered rate follows the plan through the engine's pacing
    hook (a not-yet-added server parks at rate 0).  Under {!Plan.empty}
    this is the static cluster.

    With a {!router}, the replicated-table case: copies of one request
    race across replicas, so no thinning can split them.  Every engine
    is caller-fed ({!Kvserver.Engine.attach}) on one shared {!Dsim.Sim},
    and one seeded Poisson stream at the table's offered load hands
    each request to the router.

    Deterministic: with a fixed [(seed, table)] (and router) the result
    is bit-identical at any [MINOS_JOBS]. *)

(** A caller-fed router ({!Kvhedge.Cluster}): [arrive] routes the
    generator's last draw, arriving now; the fault plan's crashes reach
    [kill], then [detect] [detect_us] later, and [recover]. *)
type router = {
  arrive : Workload.Generator.t -> unit;
  kill : int -> unit;
  detect : int -> unit;
  recover : int -> unit;
  detect_us : float;
}

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
  ?router:(Dsim.Sim.t -> Kvserver.Engine.t array -> router) ->
  cfg:Kvserver.Config.t ->
  design:Kvserver.Design.t ->
  workload:Workload.Spec.t ->
  table:Table.t ->
  unit ->
  t
(** [run ~cfg ~design ~workload ~table ()] simulates every engine and
    aggregates.  [seed] (1) must match the one the table was compiled
    with (it seeds the request stream, per-engine config perturbation
    and the protocol check).  [fault] crashes servers by the plan's
    [kill-server]/[recover-server] windows (each engine is created with
    its cluster [~server] id), and the same plan overlays crashes on the
    key-level {!Protocol.check} audit; without a router each engine gets
    its own {!Fault.Inject} with decorrelated seeds.  [instrument]
    attaches a flight recorder per engine; [map] substitutes a parallel
    map ({!Minos.Par.map_list}) and must preserve order and length.

    [router] selects the replicated-table case: it is built once, from
    the shared simulation and the started engines (indexed by server
    id), which share one injector.  Caller-fed engines record no
    latency, so there [latencies] are empty, the aggregate quantiles
    and window series are [nan] or empty, and the router reports
    request latency itself; [metrics.per_shard] still holds each
    engine's report and ledger, and [map] is unused.

    Raises [Invalid_argument] when [cfg.duration_us] differs from the
    table's, when a router comes with [instrument], and when a
    [kill-server] names a server id outside the table. *)
