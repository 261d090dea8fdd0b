type row = {
  scenario : string;
  design : string;
  offered_mops : float;
  metrics : Kvserver.Metrics.t;
}

type t = { seed : int; offered_mops : float; rows : row list }

let suite = [ "diurnal"; "bursts"; "ttl-churn"; "scan-heavy"; "cold-tier" ]

let designs () = [ Kvserver.Design.minos; Kvserver.Design.hkh ]

let run ?(names = suite) (r : Run.t) =
  let cfg = Run.config r in
  let seed = r.Run.seed in
  let offered_mops = Option.value r.Run.offered_mops ~default:2.5 in
  let points =
    List.concat_map
      (fun name ->
        let info =
          match Workload.Scenario.find name with
          | Some i -> i
          | None -> invalid_arg ("Scenarios.run: unknown scenario " ^ name)
        in
        List.map (fun design -> (info, design)) (designs ()))
      names
  in
  let rows =
    Par.map_list
      (fun ((info : Workload.Scenario.info), design) ->
        let metrics =
          Experiment.Spec.make design
          |> Experiment.Spec.with_workload info.Workload.Scenario.base
          |> Experiment.Spec.with_cfg cfg
          |> Experiment.Spec.with_seed seed
          |> Experiment.Spec.with_load offered_mops
          |> Experiment.run_spec
        in
        {
          scenario = info.Workload.Scenario.name;
          design = Kvserver.Design.name design;
          offered_mops;
          metrics;
        })
      points
  in
  { seed; offered_mops; rows }

let minos_name = Kvserver.Design.(name minos)
let hkh_name = Kvserver.Design.(name hkh)

let scenario_names t =
  List.fold_left
    (fun acc r -> if List.mem r.scenario acc then acc else acc @ [ r.scenario ])
    [] t.rows

let check t =
  let rows name = List.filter (fun r -> r.scenario = name) t.rows in
  let p99 name design =
    match List.find_opt (fun r -> r.design = design) (rows name) with
    | Some r -> r.metrics.Kvserver.Metrics.p99_us
    | None -> Float.nan
  in
  let every name what pred =
    match rows name with
    | [] -> [ (false, name ^ ": not in the run") ]
    | rs -> List.map (fun r -> (pred r.metrics, Printf.sprintf "%s/%s: %s" name r.design what)) rs
  in
  let minos = p99 "scan-heavy" minos_name and hkh = p99 "scan-heavy" hkh_name in
  Report.verdict
    (List.map
       (fun r ->
         Report.ledger_claim (r.scenario ^ "/" ^ r.design)
           (Obs.Ledger.check (Kvserver.Metrics.ledger r.metrics)))
       t.rows
    @ [
        ( minos < hkh,
          Printf.sprintf "scan-heavy: size-aware p99 %.3f not below keyhash %.3f" minos hkh );
      ]
    @ every "cold-tier" "no misses — not larger than memory" (fun m ->
          m.Kvserver.Metrics.expired_misses > 0)
    @ every "cold-tier" "nothing evicted" (fun m -> m.Kvserver.Metrics.evicted_keys > 0)
    @ every "ttl-churn" "nothing expired" (fun m -> m.Kvserver.Metrics.expired_keys > 0))

let print t =
  Report.section
    (Printf.sprintf "Scenarios: %s Mops offered, seed %d" (Report.f2 t.offered_mops)
       t.seed);
  List.iter
    (fun name ->
      let rows = List.filter (fun r -> r.scenario = name) t.rows in
      let summary =
        match Workload.Scenario.find name with
        | Some i -> i.Workload.Scenario.summary
        | None -> ""
      in
      Report.table
        ~title:(Printf.sprintf "%s — %s" name summary)
        ~headers:
          [ "design"; "p50 us"; "p99 us"; "tput Mops"; "miss"; "expired"; "evicted";
            "exact" ]
        (List.map
           (fun r ->
             let m = r.metrics in
             [
               r.design;
               Report.f1 m.Kvserver.Metrics.p50_us;
               Report.f1 m.Kvserver.Metrics.p99_us;
               Report.f2 m.Kvserver.Metrics.throughput_mops;
               string_of_int m.Kvserver.Metrics.expired_misses;
               string_of_int m.Kvserver.Metrics.expired_keys;
               string_of_int m.Kvserver.Metrics.evicted_keys;
               (if Obs.Ledger.telescopes (Kvserver.Metrics.ledger m) then "yes"
                else "BROKEN");
             ])
           rows);
      match
        ( List.find_opt (fun r -> r.design = minos_name) rows,
          List.find_opt (fun r -> r.design = hkh_name) rows )
      with
      | Some a, Some b ->
          Report.note "size-aware p99 %s us vs keyhash %s us (%sx)"
            (Report.f1 a.metrics.Kvserver.Metrics.p99_us)
            (Report.f1 b.metrics.Kvserver.Metrics.p99_us)
            (Report.f2
               (b.metrics.Kvserver.Metrics.p99_us
               /. Float.max a.metrics.Kvserver.Metrics.p99_us 0.001))
      | _ -> ())
    (scenario_names t)

let to_json t =
  let row r =
    let m = r.metrics in
    ( r.design,
      Obs.Json.(
        Obj
          [
            ("p50_us", Float m.Kvserver.Metrics.p50_us);
            ("p99_us", Float m.Kvserver.Metrics.p99_us);
            ("throughput_mops", Float m.Kvserver.Metrics.throughput_mops);
            ("expired_keys", Int m.Kvserver.Metrics.expired_keys);
            ("evicted_keys", Int m.Kvserver.Metrics.evicted_keys);
            ("stable", Bool m.Kvserver.Metrics.stable);
            ("ledger", Obs.Ledger.to_json (Kvserver.Metrics.ledger m));
          ]) )
  in
  let scenario name =
    (name, Obs.Json.Obj (List.map row (List.filter (fun r -> r.scenario = name) t.rows)))
  in
  Obs.Json.(
    Obj
      [
        ("seed", Int t.seed);
        ("offered_mops", Float t.offered_mops);
        ("scenarios", Obj (List.map scenario (scenario_names t)));
      ])

let report = { Run.noun = "scenario"; print; to_json; check }
