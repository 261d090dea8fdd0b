type side = { run : Shardmgr.Run.t; fanout : Kvcluster.Fanout.point list }

type t = {
  servers : int;
  offered_mops : float;
  seed : int;
  table : Shardmgr.Table.t;
  main : side;
  baseline : side;
}

let run ?policy ?vnodes ?rebalance ?(fanouts = [ 1; 2; 4; 8; 16 ]) ?trials
    ?(servers = 4) (r : Run.t) =
  let cfg = Run.config r in
  let workload = Run.flat r in
  let seed = r.Run.seed in
  let offered_mops = Option.value r.Run.offered_mops ~default:8.0 in
  let dataset = Experiment.dataset_for workload in
  let table =
    Shardmgr.Table.compile ?policy ?rebalance ?vnodes ~seed ~servers ~workload
      ~dataset ~duration_us:cfg.Kvserver.Config.duration_us ~offered_mops
      Shardmgr.Plan.empty
  in
  let instruments =
    match r.Run.trace_out with
    | None -> None
    | Some _ ->
        Some
          (Array.init servers (fun s ->
               Obs.Instrument.create ~server:s ~cores:cfg.Kvserver.Config.cores
                 ~seed:(seed + (97 * s) + 0x0b5) ()))
  in
  let instrument =
    Option.map (fun arr s -> arr.(s)) instruments
  in
  let go design ?instrument () =
    let run =
      Shardmgr.Run.run ~seed ?instrument ~map:Par.map_list ~cfg ~design
        ~workload ~table ()
    in
    let fanout =
      Kvcluster.Fanout.measure
        ~rng:(Dsim.Rng.create (seed lxor 0x0fa17007))
        ~route:(Shardmgr.Table.read_target table ~epoch:0)
        ~sample_key:(fun rng -> Workload.Dataset.sample_get_key dataset rng)
        ~latencies:run.Shardmgr.Run.latencies ?trials ~fanouts ()
    in
    { run; fanout }
  in
  let main = go r.Run.design ?instrument () in
  let baseline = go r.Run.baseline () in
  (match (r.Run.trace_out, instruments) with
  | Some path, Some arr ->
      let sections =
        Array.to_list
          (Array.mapi (fun s ins -> (Printf.sprintf "shard %d" s, ins)) arr)
      in
      Obs.Chrome_trace.write_cluster ~path sections
  | _ -> ());
  { servers; offered_mops; seed; table; main; baseline }

let check t =
  let m = t.main.run.Shardmgr.Run.metrics in
  let b = t.baseline.run.Shardmgr.Run.metrics in
  let p99 (p : Kvcluster.Fanout.point) = p.Kvcluster.Fanout.p99_us in
  let fan = List.map p99 t.main.fanout in
  let rec monotone = function
    | a :: (b :: _ as rest) -> b >= a && monotone rest
    | _ -> true
  in
  let fan_str = String.concat ", " (List.map (Printf.sprintf "%.3f") fan) in
  Report.verdict
    ([
       Report.ledger_claim "main" (Kvcluster.Metrics.check m);
       Report.ledger_claim "baseline" (Kvcluster.Metrics.check b);
     ]
    @ Array.to_list
        (Array.mapi
           (fun s (ms : Kvserver.Metrics.t) ->
             let bs = b.Kvcluster.Metrics.per_shard.(s) in
             ( ms.Kvserver.Metrics.p99_us < bs.Kvserver.Metrics.p99_us,
               Printf.sprintf "shard %d: minos p99 %.3f not below keyhash %.3f" s
                 ms.Kvserver.Metrics.p99_us bs.Kvserver.Metrics.p99_us ))
           m.Kvcluster.Metrics.per_shard)
    @ [
        (monotone fan, "fan-out p99 not monotone: " ^ fan_str);
        ( (match (fan, List.rev fan) with
          | first :: _, last :: _ -> last > first
          | _ -> false),
          "fan-out p99 flat: " ^ fan_str );
      ]
    @ List.map2
        (fun (a : Kvcluster.Fanout.point) bp ->
          ( p99 a < p99 bp,
            Printf.sprintf "fanout %d: minos completion p99 %.3f not below keyhash %.3f"
              a.Kvcluster.Fanout.fanout (p99 a) (p99 bp) ))
        t.main.fanout t.baseline.fanout)

(* ------------------------------------------------------------------ *)
(* Printing *)

let policy_name t =
  match Shardmgr.Table.policy t.table with
  | Shardmgr.Table.Hash -> "hash"
  | Shardmgr.Table.Range -> "range"

let shard_table t label (r : Shardmgr.Run.t) =
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
             Report.f1 sm.Kvserver.Metrics.p999_us;
             string_of_int (Kvserver.Metrics.shed_total sm);
             (if sm.Kvserver.Metrics.stable then "yes" else "NO");
           ])
         m.Kvcluster.Metrics.per_shard)
  in
  Report.table
    ~title:(Printf.sprintf "%s: per-shard (%s)" label r.Shardmgr.Run.design_name)
    ~headers:[ "shard"; "share"; "tput Mops"; "p50 us"; "p99 us"; "p99.9 us"; "shed"; "stable" ]
    rows;
  Report.note "cluster: tput %s Mops  p50 %s  p99 %s  p99.9 %s us  worst-shard p99 %s us"
    (Report.f2 m.Kvcluster.Metrics.throughput_mops)
    (Report.f1 m.Kvcluster.Metrics.p50_us)
    (Report.f1 m.Kvcluster.Metrics.p99_us)
    (Report.f1 m.Kvcluster.Metrics.p999_us)
    (Report.f1 m.Kvcluster.Metrics.worst_shard_p99_us);
  Report.note "loss accounting %s  imbalance (max/mean share) %s"
    (if Result.is_ok (Kvcluster.Metrics.check m) then "exact" else "BROKEN")
    (Report.f2 m.Kvcluster.Metrics.imbalance);
  match Shardmgr.Table.rebalance_info t.table with
  | None -> ()
  | Some rb ->
      Report.note "rebalance: imbalance %s -> %s, moved %s of traffic"
        (Report.f2 rb.Shardmgr.Table.imbalance_before)
        (Report.f2 rb.Shardmgr.Table.imbalance_after)
        (Report.pct rb.Shardmgr.Table.moved_share)

let print t =
  Report.section
    (Printf.sprintf "Cluster: %d servers, %s routing, %s Mops offered, seed %d"
       t.servers (policy_name t) (Report.f2 t.offered_mops) t.seed);
  shard_table t "main" t.main.run;
  shard_table t "baseline" t.baseline.run;
  let fanout_rows =
    List.map2
      (fun (a : Kvcluster.Fanout.point) (b : Kvcluster.Fanout.point) ->
        [
          string_of_int a.Kvcluster.Fanout.fanout;
          Report.f1 a.Kvcluster.Fanout.p50_us;
          Report.f1 a.Kvcluster.Fanout.p99_us;
          Report.f1 b.Kvcluster.Fanout.p50_us;
          Report.f1 b.Kvcluster.Fanout.p99_us;
          Report.f2 (b.Kvcluster.Fanout.p99_us /. a.Kvcluster.Fanout.p99_us);
        ])
      t.main.fanout t.baseline.fanout
  in
  Report.table
    ~title:
      (Printf.sprintf "Multi-GET completion vs fan-out (%s vs %s)"
         t.main.run.Shardmgr.Run.design_name
         t.baseline.run.Shardmgr.Run.design_name)
    ~headers:
      [ "fanout"; "main p50"; "main p99"; "base p50"; "base p99"; "base/main p99" ]
    fanout_rows

(* ------------------------------------------------------------------ *)
(* JSON *)

let side_json t side =
  let r = side.run in
  let m = r.Shardmgr.Run.metrics in
  let rebalance (rb : Shardmgr.Table.rebalance_info) =
    ( "rebalance",
      Obs.Json.(
        Obj
          [
            ("imbalance_before", Float rb.Shardmgr.Table.imbalance_before);
            ("imbalance_after", Float rb.Shardmgr.Table.imbalance_after);
            ("moved_share", Float rb.Shardmgr.Table.moved_share);
          ]) )
  in
  let shard s (sm : Kvserver.Metrics.t) =
    Obs.Json.(
      Obj
        [
          ("shard", Int s);
          ("share", Float m.Kvcluster.Metrics.shard_share.(s));
          ("throughput_mops", Float sm.Kvserver.Metrics.throughput_mops);
          ("p50_us", Float sm.Kvserver.Metrics.p50_us);
          ("p99_us", Float sm.Kvserver.Metrics.p99_us);
          ("p999_us", Float sm.Kvserver.Metrics.p999_us);
          ("issued", Int sm.Kvserver.Metrics.issued);
          ("served", Int sm.Kvserver.Metrics.served_total);
          ("stable", Bool sm.Kvserver.Metrics.stable);
        ])
  in
  let fanout (p : Kvcluster.Fanout.point) =
    Obs.Json.(
      Obj
        [
          ("fanout", Int p.Kvcluster.Fanout.fanout);
          ("p50_us", Float p.Kvcluster.Fanout.p50_us);
          ("p99_us", Float p.Kvcluster.Fanout.p99_us);
          ("mean_us", Float p.Kvcluster.Fanout.mean_us);
        ])
  in
  Obs.Json.(
    Obj
      ([
         ("design", String r.Shardmgr.Run.design_name);
         ("policy", String (policy_name t));
         ("ledger", Obs.Ledger.to_json m.Kvcluster.Metrics.ledger);
         ("throughput_mops", Float m.Kvcluster.Metrics.throughput_mops);
         ("p50_us", Float m.Kvcluster.Metrics.p50_us);
         ("p99_us", Float m.Kvcluster.Metrics.p99_us);
         ("p999_us", Float m.Kvcluster.Metrics.p999_us);
         ("worst_shard_p99_us", Float m.Kvcluster.Metrics.worst_shard_p99_us);
         ("imbalance", Float m.Kvcluster.Metrics.imbalance);
         ("stable", Bool m.Kvcluster.Metrics.stable);
       ]
      @ Option.to_list (Option.map rebalance (Shardmgr.Table.rebalance_info t.table))
      @ [
          ("per_shard", List (Array.to_list (Array.mapi shard m.Kvcluster.Metrics.per_shard)));
          ("fanout", List (List.map fanout side.fanout));
        ]))

let to_json t =
  Obs.Json.(
    Obj
      [
        ("servers", Int t.servers);
        ("offered_mops", Float t.offered_mops);
        ("seed", Int t.seed);
        ("main", side_json t t.main);
        ("baseline", side_json t t.baseline);
      ])

let report = { Run.noun = "cluster"; print; to_json; check }
