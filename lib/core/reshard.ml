(* Elastic-resharding experiment front end; see reshard.mli. *)

type t = {
  servers : int;
  n_servers : int;
  offered_mops : float;
  seed : int;
  plan : Shardmgr.Plan.t;
  manager_events : int;
  table : Shardmgr.Table.t;
  main : Shardmgr.Run.t;
  baseline : Shardmgr.Run.t;
}

let log_kind = function
  | Shardmgr.Table.Drain_start -> Obs.Decision_log.kind_drain_start
  | Shardmgr.Table.Dual_start -> Obs.Decision_log.kind_dual_start
  | Shardmgr.Table.Cutover -> Obs.Decision_log.kind_cutover
  | Shardmgr.Table.Replica_add -> Obs.Decision_log.kind_replica_add
  | Shardmgr.Table.Replica_drop -> Obs.Decision_log.kind_replica_drop

(* Shards the plan ever removes: the manager must not replicate them
   (compile rejects removing a shard with live replicas, and a replica
   of a gone shard is useless anyway). *)
let removed_shards (plan : Shardmgr.Plan.t) =
  List.filter_map
    (function
      | Shardmgr.Plan.Remove_server { server; _ } -> Some server
      | _ -> None)
    plan.Shardmgr.Plan.events

let manager_plan ~mcfg ~window_us ~duration_us ~servers ~plan
    (pass1 : Shardmgr.Run.t) =
  let series = Array.sub pass1.Shardmgr.Run.shard_series 0 servers in
  let removed = removed_shards plan in
  let events =
    Shardmgr.Manager.decide_all mcfg ~window_us series
    |> List.filter (function
         | Shardmgr.Plan.Add_replica { shard; at_us }
         | Shardmgr.Plan.Drop_replica { shard; at_us } ->
             (not (List.mem shard removed)) && at_us < duration_us
         | _ -> true)
  in
  ( { plan with Shardmgr.Plan.events = plan.Shardmgr.Plan.events @ events },
    List.length events )

let run ?vnodes ?groups ?manage ?(servers = 4) ?plan (r : Run.t) =
  (* The run's scale with its p99 window on: the timeline and manage
     mode read it. *)
  let window_us = r.Run.scale.Experiment.window_us in
  let cfg = { (Run.config r) with Kvserver.Config.window_us = Some window_us } in
  let duration_us = cfg.Kvserver.Config.duration_us in
  let plan =
    match plan with
    | Some p -> p
    | None ->
        Option.get
          (Shardmgr.Plan.canned "add-remove" ~warmup_us:cfg.Kvserver.Config.warmup_us
             ~duration_us)
  in
  let workload = Run.flat r in
  let seed = r.Run.seed in
  let offered_mops = Option.value r.Run.offered_mops ~default:8.0 in
  let design = r.Run.design in
  let dataset = Experiment.dataset_for workload in
  let compile plan =
    Shardmgr.Table.compile ?vnodes ?groups ~seed ~servers ~workload
      ~dataset ~duration_us ~offered_mops plan
  in
  let go ?instrument design table =
    Shardmgr.Run.run ~seed ?instrument ~map:Par.map_list ~cfg ~design
      ~workload ~table ()
  in
  (* Managed mode is two deterministic passes: record the per-shard p99
     series under the membership-only plan, fold it through the manager,
     replay with the emitted replica events appended.  (A mid-run
     feedback loop would not reproduce across MINOS_JOBS.) *)
  let plan, manager_events =
    match manage with
    | None -> (plan, 0)
    | Some mcfg ->
        let pass1 = go design (compile plan) in
        manager_plan ~mcfg ~window_us ~duration_us ~servers ~plan pass1
  in
  let table = compile plan in
  let n_servers = Shardmgr.Table.n_servers table in
  let instruments =
    match r.Run.trace_out with
    | None -> None
    | Some _ ->
        Some
          (Array.init n_servers (fun s ->
               Obs.Instrument.create ~server:s ~cores:cfg.Kvserver.Config.cores
                 ~seed:(seed + (97 * s) + 0x0b5) ()))
  in
  let instrument = Option.map (fun arr s -> arr.(s)) instruments in
  let main = go ?instrument design table in
  let baseline = go r.Run.baseline table in
  (match (r.Run.trace_out, instruments) with
  | Some path, Some arr ->
      (* One pseudo-process carries the planned reshard schedule, so the
         drain / dual / cutover / replica marks land on their own track
         next to the per-shard sections. *)
      let mgr =
        Obs.Instrument.create ~server:n_servers ~spans:1 ~timeline:false
          ~cores:1 ~seed:0 ()
      in
      List.iter
        (fun (ev : Shardmgr.Table.logged) ->
          Obs.Decision_log.record_reshard mgr.Obs.Instrument.decisions
            ~kind:(log_kind ev.Shardmgr.Table.kind) ~now:ev.Shardmgr.Table.at
            ~until:ev.Shardmgr.Table.until ~server:ev.Shardmgr.Table.server
            ~shard:ev.Shardmgr.Table.shard ~epoch:ev.Shardmgr.Table.epoch)
        (Shardmgr.Table.events table);
      let sections =
        Array.to_list
          (Array.mapi (fun s ins -> (Printf.sprintf "shard %d" s, ins)) arr)
        @ [ ("shardmgr", mgr) ]
      in
      Obs.Chrome_trace.write_cluster ~path sections
  | _ -> ());
  {
    servers;
    n_servers;
    offered_mops;
    seed;
    plan;
    manager_events;
    table;
    main;
    baseline;
  }

let check t =
  let run_claims (name, (r : Shardmgr.Run.t)) =
    let p = r.Shardmgr.Run.protocol in
    let mig = r.Shardmgr.Run.mig_p99_us and steady = r.Shardmgr.Run.steady_p99_us in
    [
      Report.ledger_claim (name ^ " across reshard")
        (Kvcluster.Metrics.check r.Shardmgr.Run.metrics);
      ( p.Shardmgr.Protocol.lost = 0
        && p.Shardmgr.Protocol.duplicated = 0
        && p.Shardmgr.Protocol.stale = 0,
        Printf.sprintf "%s: protocol audit lost %d, duplicated %d, stale %d" name
          p.Shardmgr.Protocol.lost p.Shardmgr.Protocol.duplicated
          p.Shardmgr.Protocol.stale );
      (p.Shardmgr.Protocol.transferred > 0, name ^ ": no backlog transferred");
      ( not (Float.is_nan mig || Float.is_nan steady),
        name ^ ": missing migration/steady p99 split" );
      ( mig <= 3.0 *. steady,
        Printf.sprintf "%s: migration p99 %.3f us above 3x steady %.3f us" name mig
          steady );
    ]
  in
  Report.verdict
    (( List.exists
         (fun (ev : Shardmgr.Table.logged) ->
           ev.Shardmgr.Table.kind = Shardmgr.Table.Cutover)
         (Shardmgr.Table.events t.table),
       "no cutover happened" )
    :: List.concat_map run_claims [ ("main", t.main); ("baseline", t.baseline) ])

(* ------------------------------------------------------------------ *)
(* Printing *)

let kind_str k = Obs.Decision_log.kind_name (log_kind k)

let run_table label (r : Shardmgr.Run.t) =
  let m = r.Shardmgr.Run.metrics in
  let rows =
    Array.to_list
      (Array.mapi
         (fun s (sm : Kvserver.Metrics.t) ->
           [
             string_of_int s;
             Report.pct m.Kvcluster.Metrics.shard_share.(s);
             Report.f2 sm.Kvserver.Metrics.throughput_mops;
             Report.f1 sm.Kvserver.Metrics.p50_us;
             Report.f1 sm.Kvserver.Metrics.p99_us;
             string_of_int sm.Kvserver.Metrics.issued;
             (if sm.Kvserver.Metrics.stable then "yes" else "NO");
           ])
         m.Kvcluster.Metrics.per_shard)
  in
  Report.table
    ~title:(Printf.sprintf "%s: per-server (%s)" label r.Shardmgr.Run.design_name)
    ~headers:[ "srv"; "share"; "tput Mops"; "p50 us"; "p99 us"; "issued"; "stable" ]
    rows;
  let p = r.Shardmgr.Run.protocol in
  Report.note
    "cluster: tput %s Mops  p99 %s us  migration p99 %s us  steady p99 %s us"
    (Report.f2 m.Kvcluster.Metrics.throughput_mops)
    (Report.f1 m.Kvcluster.Metrics.p99_us)
    (Report.f1 r.Shardmgr.Run.mig_p99_us)
    (Report.f1 r.Shardmgr.Run.steady_p99_us);
  Report.note
    "loss accounting %s  keys: %d transferred, %d fallback reads, lost %d, duplicated %d, stale %d"
    (if Result.is_ok (Kvcluster.Metrics.check m) then "exact" else "BROKEN")
    p.Shardmgr.Protocol.transferred p.Shardmgr.Protocol.fallback_reads
    p.Shardmgr.Protocol.lost p.Shardmgr.Protocol.duplicated
    p.Shardmgr.Protocol.stale

let print t =
  Report.section
    (Printf.sprintf
       "Reshard: plan '%s', %d -> %d servers, %s Mops offered, seed %d"
       t.plan.Shardmgr.Plan.name t.servers t.n_servers
       (Report.f2 t.offered_mops) t.seed);
  let events = Shardmgr.Table.events t.table in
  Report.note "%d routing epochs, %d protocol events%s"
    (Shardmgr.Table.epoch_count t.table)
    (List.length events)
    (if t.manager_events > 0 then
       Printf.sprintf " (%d appended by the manager)" t.manager_events
     else "");
  List.iter
    (fun (ev : Shardmgr.Table.logged) ->
      Report.note "  %8s us  %-12s srv %d  shard/group %d  epoch %d"
        (Report.f1 ev.Shardmgr.Table.at)
        (kind_str ev.Shardmgr.Table.kind)
        ev.Shardmgr.Table.server ev.Shardmgr.Table.shard
        ev.Shardmgr.Table.epoch)
    events;
  run_table "main" t.main;
  run_table "baseline" t.baseline

(* ------------------------------------------------------------------ *)
(* JSON *)

let run_json (r : Shardmgr.Run.t) =
  let m = r.Shardmgr.Run.metrics in
  let p = r.Shardmgr.Run.protocol in
  let server s (sm : Kvserver.Metrics.t) =
    Obs.Json.(
      Obj
        [
          ("server", Int s);
          ("share", Float m.Kvcluster.Metrics.shard_share.(s));
          ("throughput_mops", Float sm.Kvserver.Metrics.throughput_mops);
          ("p99_us", Float sm.Kvserver.Metrics.p99_us);
          ("issued", Int sm.Kvserver.Metrics.issued);
          ("served", Int sm.Kvserver.Metrics.served_total);
          ("stable", Bool sm.Kvserver.Metrics.stable);
        ])
  in
  Obs.Json.(
    Obj
      [
        ("design", String r.Shardmgr.Run.design_name);
        ("ledger", Obs.Ledger.to_json m.Kvcluster.Metrics.ledger);
        ("throughput_mops", Float m.Kvcluster.Metrics.throughput_mops);
        ("p50_us", Float m.Kvcluster.Metrics.p50_us);
        ("p99_us", Float m.Kvcluster.Metrics.p99_us);
        ("worst_shard_p99_us", Float m.Kvcluster.Metrics.worst_shard_p99_us);
        ("stable", Bool m.Kvcluster.Metrics.stable);
        ("mig_p99_us", Float r.Shardmgr.Run.mig_p99_us);
        ("steady_p99_us", Float r.Shardmgr.Run.steady_p99_us);
        ("protocol", Shardmgr.Protocol.to_json p);
        ( "p99_series",
          List (List.map (fun (st, p99) -> List [ Float st; Float p99 ]) r.Shardmgr.Run.p99_series) );
        ("per_shard", List (Array.to_list (Array.mapi server m.Kvcluster.Metrics.per_shard)));
      ])

let to_json t =
  let event (ev : Shardmgr.Table.logged) =
    Obs.Json.(
      Obj
        [
          ("kind", String (kind_str ev.Shardmgr.Table.kind));
          ("at_us", Float ev.Shardmgr.Table.at);
          ("until_us", Float ev.Shardmgr.Table.until);
          ("server", Int ev.Shardmgr.Table.server);
          ("shard", Int ev.Shardmgr.Table.shard);
          ("epoch", Int ev.Shardmgr.Table.epoch);
        ])
  in
  Obs.Json.(
    Obj
      [
        ("plan", String t.plan.Shardmgr.Plan.name);
        ("servers", Int t.servers);
        ("n_servers", Int t.n_servers);
        ("offered_mops", Float t.offered_mops);
        ("seed", Int t.seed);
        ("manager_events", Int t.manager_events);
        ("events", List (List.map event (Shardmgr.Table.events t.table)));
        ("main", run_json t.main);
        ("baseline", run_json t.baseline);
      ])

let report = { Run.noun = "reshard"; print; to_json; check }
