(* Replica-aware tail-cutting experiment front end; see hedge.mli. *)

type entry = {
  label : string;
  design : string;
  mode : string;
  route : string;
  plan : string;
  metrics : Kvhedge.Metrics.t;
  engines : Kvcluster.Metrics.t;
}

type t = {
  shards : int;
  mirrors : int;
  cores : int;
  offered_mops : float;
  seed : int;
  detect_us : float;
  kill_at_us : float;
  recover_at_us : float;
  killed_server : int;
  hedge_tax : float;
  entries : entry list;
  audit : Shardmgr.Protocol.result;
}

let run ?(shards = 4) ?(mirrors = 1) ?cores ?hedge_quantile ?detect_us (r : Run.t) =
  let server = Experiment.config_of_scale r.Run.scale in
  let server =
    { server with Kvserver.Config.cores = Option.value cores ~default:server.Kvserver.Config.cores }
  in
  let policy =
    {
      Kvhedge.Config.default with
      Kvhedge.Config.mode = Kvhedge.Config.Off;
      hedge_quantile =
        Option.value hedge_quantile ~default:Kvhedge.Config.default.Kvhedge.Config.hedge_quantile;
      detect_us;
    }
  in
  (match Result.bind (Kvhedge.Config.validate policy) (fun () -> Kvserver.Config.validate server) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Hedge.run: " ^ msg));
  if mirrors < 1 then
    invalid_arg "Hedge.run: tail-cutting needs at least one mirror per shard";
  let workload = Run.flat r in
  let seed = r.Run.seed in
  let offered_mops = Option.value r.Run.offered_mops ~default:8.0 in
  let duration = server.Kvserver.Config.duration_us in
  let warmup = server.Kvserver.Config.warmup_us in
  let measured = duration -. warmup in
  (* The canned crash: kill the FIRST MIRROR (server id [shards], i.e.
     replica 1 of shard 0) 30 % into the measured window, restart it at
     80 %.  Killing a mirror rather than a primary keeps every PUT's
     completion leg alive, so the hedged GET path is what the tail
     measures; the audit proves the crash is key-lossless either way
     (every key still has its primary copy). *)
  let kill_at_us = warmup +. (0.3 *. measured) in
  let recover_at_us = warmup +. (0.8 *. measured) in
  let killed_server = shards in
  let plan =
    {
      Fault.Plan.name = "kill-server";
      events =
        [
          Fault.Plan.Kill_server { server = killed_server; at_us = kill_at_us };
          Fault.Plan.Recover_server { server = killed_server; at_us = recover_at_us };
        ];
    }
  in
  let dataset = Experiment.dataset_for workload in
  (* The one routing table: every variant routes over it, and each run's
     key audit checks it. *)
  let table =
    Shardmgr.Table.compile ~seed ~servers:shards ~workload ~dataset
      ~duration_us:duration ~offered_mops
      (Shardmgr.Plan.replicated ~shards ~mirrors)
  in
  let minos = Kvserver.Design.minos and hkh = Kvserver.Design.hkh in
  let hedged = { policy with Kvhedge.Config.mode = Kvhedge.Config.Hedged } in
  let p2c = { policy with Kvhedge.Config.route = Kvhedge.Config.P2c } in
  let variants =
    [
      ("sizeaware+hedged/none", minos, hedged, None);
      ("sizeaware/none", minos, policy, None);
      ("sizeaware+hedged/kill-server", minos, hedged, Some plan);
      ("sizeaware/kill-server", minos, policy, Some plan);
      ( "sizeaware+tied/kill-server",
        minos,
        { policy with Kvhedge.Config.mode = Kvhedge.Config.Tied },
        Some plan );
      ("keyhash+hedged/kill-server", hkh, hedged, Some plan);
      ("keyhash/none", hkh, policy, None);
      ( "p2c+hedged/kill-server",
        minos,
        { p2c with Kvhedge.Config.mode = Kvhedge.Config.Hedged },
        Some plan );
      ("p2c/kill-server", minos, p2c, Some plan);
    ]
  in
  let traced = "sizeaware+hedged/kill-server" in
  let job (label, design, policy, plan) =
    (* The traced variant's kill / recover / hedge-delay instants go on
       one pseudo-process's decision track. *)
    let ins =
      match r.Run.trace_out with
      | Some _ when label = traced ->
          Some (Obs.Instrument.create ~server:0 ~spans:1 ~timeline:false ~cores:1 ~seed:0 ())
      | Some _ | None -> None
    in
    let setup c =
      Option.iter (fun ins -> Kvhedge.Cluster.set_log c ins.Obs.Instrument.decisions) ins
    in
    let metrics, run =
      Kvhedge.Cluster.run policy ?fault:plan ~setup ~seed ~server ~design ~workload table
    in
    ( {
        label;
        design = Kvserver.Design.name design;
        mode = Kvhedge.Config.mode_name policy.Kvhedge.Config.mode;
        route = Kvhedge.Config.route_name policy.Kvhedge.Config.route;
        plan = (match plan with None -> "none" | Some p -> p.Fault.Plan.name);
        metrics;
        engines = run.Shardmgr.Run.metrics;
      },
      run.Shardmgr.Run.protocol,
      ins )
  in
  let results = Par.map_list job variants in
  let entries = List.map (fun (e, _, _) -> e) results in
  (match (r.Run.trace_out, List.find_map (fun (_, _, ins) -> ins) results) with
  | Some path, Some ins -> Obs.Chrome_trace.write_cluster ~path [ ("hedge", ins) ]
  | _ -> ());
  (* The hedge tax, measured where hedging buys nothing: the fault-free
     hedged run's wasted backup legs per request. *)
  let hedge_tax =
    match List.find_opt (fun e -> e.label = "sizeaware+hedged/none") entries with
    | Some e when Obs.Ledger.issued e.metrics.Kvhedge.Metrics.requests > 0 ->
        float_of_int (Obs.Ledger.leg e.metrics.Kvhedge.Metrics.copies "hedged_wasted")
        /. float_of_int (Obs.Ledger.issued e.metrics.Kvhedge.Metrics.requests)
    | _ -> Float.nan
  in
  (* Key-level conservation across the crash: the table's audit under
     the kill plan, which every killed run computes alike. *)
  let audit = List.assoc traced (List.map (fun (e, a, _) -> (e.label, a)) results) in
  {
    shards;
    mirrors;
    cores = server.Kvserver.Config.cores;
    offered_mops;
    seed;
    detect_us = Kvhedge.Config.detect_us policy server;
    kill_at_us;
    recover_at_us;
    killed_server;
    hedge_tax;
    entries;
    audit;
  }

let check t =
  let p99 label =
    match List.find_opt (fun e -> e.label = label) t.entries with
    | Some e -> e.metrics.Kvhedge.Metrics.p99_us
    | None -> Float.nan
  in
  let clean = p99 "sizeaware/none" in
  let hedged = p99 "sizeaware+hedged/kill-server" in
  let unhedged = p99 "sizeaware/kill-server" in
  let labels = List.sort_uniq String.compare (List.map (fun e -> e.label) t.entries) in
  let a = t.audit in
  Report.verdict
    ([
       ( List.length labels = 9,
         Printf.sprintf "expected 9 variants, got %d" (List.length labels) );
     ]
    @ List.concat_map
        (fun e ->
          [
            Report.ledger_claim (e.label ^ " copies")
              (Obs.Ledger.check e.metrics.Kvhedge.Metrics.copies);
            Report.ledger_claim (e.label ^ " requests")
              (Obs.Ledger.check e.metrics.Kvhedge.Metrics.requests);
            Report.ledger_claim (e.label ^ " engines") (Kvcluster.Metrics.check e.engines);
          ])
        t.entries
    @ [
        ( Shardmgr.Protocol.ok a
          && a.Shardmgr.Protocol.lost = 0
          && a.Shardmgr.Protocol.duplicated = 0
          && a.Shardmgr.Protocol.stale = 0,
          "crash audit violated" );
        (a.Shardmgr.Protocol.transferred > 0, "recovery resynced nothing");
        (t.hedge_tax >= 0.0, "hedge tax missing");
        ( hedged <= 3.0 *. clean,
          Printf.sprintf "hedged p99 under crash %.3f us above 3x fault-free %.3f us" hedged
            clean );
        ( unhedged >= 10.0 *. clean,
          Printf.sprintf "unhedged crash p99 %.3f us suspiciously close to fault-free %.3f us"
            unhedged clean );
      ])

(* ------------------------------------------------------------------ *)
(* Printing *)

let print t =
  Report.section
    (Printf.sprintf
       "Hedge: %d shards x %d replicas x %d cores, %s Mops offered, seed %d"
       t.shards (t.mirrors + 1) t.cores (Report.f2 t.offered_mops) t.seed);
  Report.note
    "kill-server: server %d down %s..%s us, detector timeout %s us"
    t.killed_server (Report.f0 t.kill_at_us) (Report.f0 t.recover_at_us)
    (Report.f0 t.detect_us);
  let rows =
    List.map
      (fun e ->
        let m = e.metrics in
        let copy = Obs.Ledger.leg m.Kvhedge.Metrics.copies in
        [
          e.label;
          Report.f1 m.Kvhedge.Metrics.p50_us;
          Report.f1 m.Kvhedge.Metrics.p99_us;
          Report.f1 m.Kvhedge.Metrics.p999_us;
          string_of_int m.Kvhedge.Metrics.hedges_issued;
          string_of_int (copy "hedged_wasted");
          string_of_int (copy "cancelled");
          string_of_int m.Kvhedge.Metrics.failovers;
          string_of_int (copy "net_dropped");
          string_of_int (Obs.Ledger.leg m.Kvhedge.Metrics.requests "failed");
          (if Obs.Ledger.telescopes m.Kvhedge.Metrics.copies then "exact" else "BROKEN");
        ])
      t.entries
  in
  Report.table ~title:"variants (latency us; copy accounting)"
    ~headers:
      [
        "variant"; "p50"; "p99"; "p999"; "hedges"; "wasted"; "canc"; "failover";
        "netdrop"; "failed"; "acct";
      ]
    rows;
  (* two decimals: the tax is typically a fraction of a percent *)
  let pct2 v =
    if Float.is_nan v then "n/a" else Printf.sprintf "%.2f%%" (100.0 *. v)
  in
  Report.note "hedge tax (fault-free wasted backups per request): %s"
    (pct2 t.hedge_tax);
  (match
     List.find_opt (fun e -> e.label = "sizeaware+hedged/kill-server") t.entries
   with
  | Some e ->
      Report.note "final hedge delay %s us (windowed-quantile estimate)"
        (Report.f1 e.metrics.Kvhedge.Metrics.hedge_delay_final_us)
  | None -> ());
  Report.note
    "key audit under the crash: %d transferred, %d fallback reads, lost %d, \
     duplicated %d, stale %d -> %s"
    t.audit.Shardmgr.Protocol.transferred
    t.audit.Shardmgr.Protocol.fallback_reads t.audit.Shardmgr.Protocol.lost
    t.audit.Shardmgr.Protocol.duplicated t.audit.Shardmgr.Protocol.stale
    (if Shardmgr.Protocol.ok t.audit then "clean" else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* JSON *)

let entry_json (e : entry) =
  let m = e.metrics in
  Obs.Json.(
    Obj
      [
        ("label", String e.label);
        ("design", String e.design);
        ("mode", String e.mode);
        ("route", String e.route);
        ("plan", String e.plan);
        ("p50_us", Float m.Kvhedge.Metrics.p50_us);
        ("p95_us", Float m.Kvhedge.Metrics.p95_us);
        ("p99_us", Float m.Kvhedge.Metrics.p99_us);
        ("p999_us", Float m.Kvhedge.Metrics.p999_us);
        ("mean_us", Float m.Kvhedge.Metrics.mean_us);
        ("samples", Int m.Kvhedge.Metrics.samples);
        ("ledger", Obs.Ledger.to_json m.Kvhedge.Metrics.copies);
        ("requests", Obs.Ledger.to_json m.Kvhedge.Metrics.requests);
        ("hedges_issued", Int m.Kvhedge.Metrics.hedges_issued);
        ("ties_issued", Int m.Kvhedge.Metrics.ties_issued);
        ("failovers", Int m.Kvhedge.Metrics.failovers);
        ("budget_exhausted", Int m.Kvhedge.Metrics.budget_exhausted);
        ("server_killed", Int m.Kvhedge.Metrics.server_killed);
        ("server_recovered", Int m.Kvhedge.Metrics.server_recovered);
        ("hedge_delay_final_us", Float m.Kvhedge.Metrics.hedge_delay_final_us);
        ("engines_telescope", Bool (Result.is_ok (Kvcluster.Metrics.check e.engines)));
        ("events", Int m.Kvhedge.Metrics.events);
      ])

let to_json t =
  Obs.Json.(
    Obj
      [
        ("shards", Int t.shards);
        ("mirrors", Int t.mirrors);
        ("cores", Int t.cores);
        ("offered_mops", Float t.offered_mops);
        ("seed", Int t.seed);
        ("killed_server", Int t.killed_server);
        ("kill_at_us", Float t.kill_at_us);
        ("recover_at_us", Float t.recover_at_us);
        ("detect_us", Float t.detect_us);
        ("hedge_tax", Float t.hedge_tax);
        ("audit", Shardmgr.Protocol.to_json t.audit);
        ("entries", List (List.map entry_json t.entries));
      ])

let report = { Run.noun = "hedge"; print; to_json; check }
