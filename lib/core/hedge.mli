(** Replica-aware tail-cutting experiment: hedged and tied requests
    versus crash chaos.

    One call runs the {!Kvhedge.Cluster} variant grid — size-aware
    versus keyhash dispatch, hedged / tied / no backup, uniform spread
    versus power-of-two-choices routing — fault-free and under the
    canned [kill-server] plan, in parallel over {!Par}.  The canned
    crash kills the first {e mirror} (server id [shards]) 30 % into the
    measured window and restarts it at 80 %, so every PUT's completion
    leg stays alive and the GET tail isolates the routing layer's
    reaction: a hedged cluster races past the dead replica after one
    hedge delay, an unhedged one waits out the failure detector.

    Alongside the latency grid, {!Shardmgr.Protocol.check}[ ?fault]
    replays the same crash against the equivalent replicated routing
    table and proves it key-lossless (the [audit] field), and the
    fault-free hedged run prices the hedge tax (wasted backup legs per
    request).

    Deterministic: a fixed [(config, workload, offered_mops, seed)]
    reproduces every entry byte-identically at any [MINOS_JOBS]. *)

type entry = {
  label : string;
      (** ["<variant>/<plan>"], e.g. ["sizeaware+hedged/kill-server"] *)
  sizeaware : bool;
  mode : string;  (** {!Kvhedge.Config.mode_name} *)
  route : string;  (** {!Kvhedge.Config.route_name} *)
  plan : string;  (** ["none"] or ["kill-server"] *)
  metrics : Kvhedge.Metrics.t;
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

val config_of_scale : Experiment.scale -> Kvhedge.Config.t
(** {!Kvhedge.Config.default} with the scale's duration / warmup /
    epoch, and the epoch as the p99 reporting window. *)

val run :
  ?config:Kvhedge.Config.t ->
  ?seed:int ->
  ?trace_out:string ->
  ?workload:Workload.Spec.t ->
  offered_mops:float ->
  unit ->
  t
(** Run the nine-variant grid.  [workload] (default
    {!Workload.Spec.default}) is a flat request mix: scenario extras
    (arrivals, TTL, scans, memory budget) are single-engine features.
    [config] defaults to
    {!config_of_scale}[ Experiment.full_scale]; its [mode] and [route]
    fields are overridden per variant, everything else (topology,
    quantile, budget, detector) applies to all.  [trace_out] writes a
    Chrome trace whose decision track carries the traced hedged-kill
    variant's kill / recover / hedge-delay instants
    ({!Obs.Decision_log.record_hedge}).  Raises [Invalid_argument] on an
    invalid config or [mirrors = 0] (tail-cutting needs a replica to
    hedge to). *)

val print : t -> unit
(** Render as a report table plus audit / tax notes. *)

val to_json : t -> string
(** The BENCH_hedge.json payload: per-entry latency quantiles and the
    full copy-accounting ledger, the crash window, the hedge tax and the
    key audit — everything CI's chaos-SLO asserts read. *)
