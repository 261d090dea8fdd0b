type row = {
  scenario : string;
  design : string;
  offered_mops : float;
  metrics : Kvserver.Metrics.t;
  telescopes : bool;
}

type t = { seed : int; offered_mops : float; rows : row list }

let suite = [ "diurnal"; "bursts"; "ttl-churn"; "scan-heavy"; "cold-tier" ]

let designs () = [ Kvserver.Design.minos; Kvserver.Design.hkh ]

let run ?cfg ?(seed = 1) ?(offered_mops = 2.5) ?(names = suite) () =
  let cfg =
    match cfg with
    | Some c -> c
    | None -> Experiment.config_of_scale Experiment.full_scale
  in
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
          telescopes = Kvserver.Metrics.telescopes metrics;
        })
      points
  in
  { seed; offered_mops; rows }

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
  let minos = p99 "scan-heavy" "Minos" and hkh = p99 "scan-heavy" "HKH" in
  Report.verdict
    (List.map
       (fun r ->
         (r.telescopes, Printf.sprintf "%s/%s: extended loss accounting broken" r.scenario r.design))
       t.rows
    @ [
        ( minos < hkh,
          Printf.sprintf "scan-heavy: size-aware p99 %s not below keyhash %s"
            (Report.json_float minos) (Report.json_float hkh) );
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
               (if r.telescopes then "yes" else "BROKEN");
             ])
           rows);
      match
        ( List.find_opt (fun r -> r.design = "minos") rows,
          List.find_opt (fun r -> r.design = "hkh") rows )
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
  let b = Buffer.create 4096 in
  let fl = Report.json_float in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"seed\": %d,\n  \"offered_mops\": %s,\n" t.seed
       (fl t.offered_mops));
  Buffer.add_string b "  \"scenarios\": {\n";
  let names = scenario_names t in
  List.iteri
    (fun ni name ->
      Buffer.add_string b (Printf.sprintf "    %s: {\n" (Report.json_string name));
      let rows = List.filter (fun r -> r.scenario = name) t.rows in
      List.iteri
        (fun ri r ->
          let m = r.metrics in
          Buffer.add_string b
            (Printf.sprintf
               "      %s: {\"p50_us\": %s, \"p99_us\": %s, \
                \"throughput_mops\": %s, \"issued\": %d, \"served\": %d, \
                \"expired_misses\": %d, \"expired_keys\": %d, \"evicted_keys\": \
                %d, \"shed\": %d, \"in_flight_end\": %d, \"stable\": %b, \
                \"telescopes\": %b}%s\n"
               (Report.json_string r.design)
               (fl m.Kvserver.Metrics.p50_us)
               (fl m.Kvserver.Metrics.p99_us)
               (fl m.Kvserver.Metrics.throughput_mops)
               m.Kvserver.Metrics.issued m.Kvserver.Metrics.served_total
               m.Kvserver.Metrics.expired_misses m.Kvserver.Metrics.expired_keys
               m.Kvserver.Metrics.evicted_keys
               (Kvserver.Metrics.shed_total m)
               m.Kvserver.Metrics.in_flight_end m.Kvserver.Metrics.stable
               r.telescopes
               (if ri = List.length rows - 1 then "" else ",")))
        rows;
      Buffer.add_string b
        (Printf.sprintf "    }%s\n" (if ni = List.length names - 1 then "" else ",")))
    names;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b
