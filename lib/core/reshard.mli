(** Elastic-resharding experiment front end.

    Compiles a {!Shardmgr.Plan} against a concrete run, simulates the
    same workload through it twice — once under the chosen (size-aware)
    design, once under a baseline — and reports the p99 timeline across
    mid-run server add/remove, the key-conservation audit and exact loss
    accounting for both.  Per-engine jobs fan out over {!Par}'s domain
    pool; results are bit-identical at any [MINOS_JOBS].

    With [manage] set, the run becomes the shard manager's two
    deterministic passes: a membership-only pass records each shard's
    per-window p99 series, {!Shardmgr.Manager.decide_all} folds it into
    timed add/drop-replica events, and the final pass replays with those
    appended to the plan. *)

type t = {
  servers : int;  (** base membership *)
  n_servers : int;  (** engines: base plus plan-allocated ids *)
  offered_mops : float;
  seed : int;
  plan : Shardmgr.Plan.t;  (** final plan, manager events included *)
  manager_events : int;  (** how many events the manager appended *)
  table : Shardmgr.Table.t;
  main : Shardmgr.Run.t;
  baseline : Shardmgr.Run.t;
}

val run :
  ?cfg:Kvserver.Config.t ->
  ?design:Kvserver.Design.t ->
  ?baseline:Kvserver.Design.t ->
  ?vnodes:int ->
  ?groups:int ->
  ?probe:int ->
  ?seed:int ->
  ?manage:Shardmgr.Manager.cfg ->
  ?fault:Fault.Plan.t ->
  ?trace_out:string ->
  ?spans:int ->
  ?sample_rate:float ->
  servers:int ->
  plan:Shardmgr.Plan.t ->
  Workload.Spec.t ->
  offered_mops:float ->
  unit ->
  t
(** [design] defaults to {!Kvserver.Design.minos}, [baseline] to
    {!Kvserver.Design.hkh}; both replay the same compiled table.  The
    workload is a flat request mix: scenario extras (arrivals, TTL,
    scans, memory budget) are single-engine features.  The
    default [cfg] is {!Experiment.full_scale} with its p99 window
    enabled (a caller-supplied [cfg] needs [window_us] set to get the
    timeline, and manage mode requires it).  [trace_out] writes a merged
    Chrome trace of the main run: one process per server plus a
    "shardmgr" pseudo-process whose track carries the planned drain /
    dual-route / cutover / replica marks.  Remaining knobs pass through
    to {!Shardmgr.Table.compile} and {!Shardmgr.Run.run}. *)

val check : t -> (unit, string) result
(** The headline claims: at least one cutover happened, and in both
    runs loss accounting telescopes on every server, the key audit
    lost, duplicated and served stale nothing while transferring some
    backlog, and the migration p99 stays within 3x of the steady-state
    p99.  [Error] names the first claim that fails. *)

val print : t -> unit
(** Aligned text report: the compiled event schedule, per-server
    breakdown for both designs, migration vs steady-state p99 and the
    key-conservation audit. *)

val to_json : t -> Obs.Json.t
(** The BENCH_reshard.json payload: the event schedule, and per design
    the aggregate metrics, the cluster ["ledger"], p99 timeline,
    migration vs steady p99 and protocol audit counts. *)
