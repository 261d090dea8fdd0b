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
  ?vnodes:int ->
  ?groups:int ->
  ?manage:Shardmgr.Manager.cfg ->
  ?servers:int ->
  ?plan:Shardmgr.Plan.t ->
  Run.t ->
  t
(** Replay [plan] (default: the canned [add-remove] over the run's
    windows) against [servers] base shards (default 4) at the run's
    offered load (default 8.0 Mops), under the run's design and again
    under its baseline; both replay the same compiled table.  The
    workload is the run's flat mix ({!Run.flat}): scenario extras
    (arrivals, TTL, scans, memory budget) are single-engine features.
    The engines run {!Run.config} with the scale's p99 window on, which
    the timeline and manage mode read.  The run's [trace_out] writes a
    merged Chrome trace of the main run: one process per server plus a
    "shardmgr" pseudo-process whose track carries the planned drain /
    dual-route / cutover / replica marks.  [vnodes] and [groups] pass
    through to {!Shardmgr.Table.compile}. *)

val report : t Run.report
(** The runner's result under the noun ["reshard"].
    - [check]: the headline claims: at least one cutover happened, and in
      both runs loss accounting telescopes on every server, the key audit
      lost, duplicated and served stale nothing while transferring some
      backlog, and the migration p99 stays within 3x of the steady-state
      p99.  [Error] names the first claim that fails.
    - [print]: aligned text report: the compiled event schedule, per-
      server breakdown for both designs, migration vs steady-state p99 and
      the key-conservation audit.
    - [to_json]: the BENCH_reshard.json payload: the event schedule, and
      per design the aggregate metrics, the cluster ["ledger"], p99
      timeline, migration vs steady p99 and protocol audit counts. *)
