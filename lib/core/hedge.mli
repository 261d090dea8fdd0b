(** Replica-aware tail-cutting experiment: hedged and tied requests
    versus crash chaos.

    One call runs the variant grid — Minos ({!Kvserver.Design.minos},
    the "sizeaware" variants) versus keyhash ({!Kvserver.Design.hkh})
    servers, hedged / tied / no backup, uniform spread versus
    power-of-two-choices routing — fault-free and under the canned
    [kill-server] plan, in parallel over {!Par}.  Every variant is one
    {!Kvhedge.Cluster.run}: the {!Kvhedge.Config} policy routing over one
    replicated {!Shardmgr.Table} inside {!Shardmgr.Run}.  The canned
    crash kills the first {e mirror} (server id [shards]) 30 % into the
    measured window and restarts it at 80 %, so every PUT's completion
    leg stays alive and the GET tail isolates the routing layer's
    reaction: a hedged cluster races past the dead replica after one
    hedge delay, an unhedged one waits out the failure detector.

    The table is compiled once, from {!Shardmgr.Plan.replicated}: the
    variants route over it, and {!Shardmgr.Protocol.check}[ ?fault]
    replays the same crash against it and proves it key-lossless (the
    [audit] field).  The fault-free hedged run prices the hedge tax
    (wasted backup legs per request).

    Deterministic: a fixed [(config, workload, offered_mops, seed)]
    reproduces every entry byte-identically at any [MINOS_JOBS]. *)

type entry = {
  label : string;
      (** ["<variant>/<plan>"], e.g. ["sizeaware+hedged/kill-server"] *)
  design : string;  (** {!Kvserver.Design.name} of every server *)
  mode : string;  (** {!Kvhedge.Config.mode_name} *)
  route : string;  (** {!Kvhedge.Config.route_name} *)
  plan : string;  (** ["none"] or ["kill-server"] *)
  metrics : Kvhedge.Metrics.t;
  engines : Kvcluster.Metrics.t;
      (** each server's engine report; its ledger counts the copies that
          server saw *)
}

type t = {
  shards : int;
  mirrors : int;
  cores : int;
  offered_mops : float;
  seed : int;
  detect_us : float;  (** effective failure-detector timeout *)
  kill_at_us : float;
  recover_at_us : float;
  killed_server : int;  (** the first mirror: server id [shards] *)
  hedge_tax : float;
      (** fault-free hedged run: wasted backup legs per request *)
  entries : entry list;
  audit : Shardmgr.Protocol.result;
      (** key-level conservation across the crash *)
}

val run :
  ?shards:int ->
  ?mirrors:int ->
  ?cores:int ->
  ?hedge_quantile:float ->
  ?detect_us:float ->
  Run.t ->
  t
(** Run the nine-variant grid on the run's flat mix ({!Run.flat}):
    scenario extras (arrivals, TTL, scans, memory budget) are
    single-engine features.  The table holds [shards] (4) primaries with
    [mirrors] (1) replicas each; every server is the run scale's engine
    with [cores] workers; the policy is {!Kvhedge.Config.default} with
    the [hedge_quantile] tracked as the hedge delay and the failure
    detector timeout [detect_us].  The variants pick [mode], [route] and
    the design.  The offered load defaults to 8.0 Mops.  The run's
    [trace_out] writes a Chrome trace whose decision track carries the
    traced hedged-kill variant's kill / recover / hedge-delay instants
    ({!Obs.Decision_log.record_hedge}).  Raises [Invalid_argument] on an
    invalid config or [mirrors = 0] (tail-cutting needs a replica to
    hedge to). *)

val report : t Run.report
(** The runner's result under the noun ["hedge"].
    - [check]: the run's headline claims, at any scale: nine distinct
      variants; every variant's copy legs sum to [issued] and every
      server's engine ledger telescopes; the crash audit is clean and
      recovery resynced keys; the hedge tax is priced; under the kill, the
      hedged Minos p99 stays within 3x of fault-free while the unhedged
      one degrades by at least 10x.  [Error] names the first failed claim.
    - [print]: render as a report table plus audit / tax notes (the hedge
      tax with two decimals).
    - [to_json]: the BENCH_hedge.json payload: per-entry latency
      quantiles, the copy ["ledger"] and the ["requests"] ledger, the
      crash window, the hedge tax and the key audit — everything [check]
      asserts. *)
