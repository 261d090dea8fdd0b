type row = {
  plan : string;
  label : string;
  offered_mops : float;
  metrics : Kvserver.Metrics.t;
}

type t = { seed : int; rows : row list }

let variants = [ "Minos+guard"; "Minos"; "HKH+WS" ]

(* Each canned plan is run at the load that makes its failure mode bite.
   A core stall or a corrupted control loop collapses the tail even at
   moderate load, but 10% loss only separates the variants once the
   retransmission storm matters, and the overload plan needs offered
   load past the squeezed ring's service rate or nothing is ever shed. *)
let plan_load ?(base = 4.0) = function
  | "loss10" -> base *. 1.75
  | "overload" -> base *. 2.0
  | _ -> base

let guard_config (base : Kvserver.Config.t) =
  {
    base with
    Kvserver.Config.watchdog = true;
    shed_watermark = Some 256;
    clamp_threshold = Some 0.5;
    rx_capacity = Some 4096;
  }

(* The baseline gets the same admission control as the guarded Minos — it
   has no watchdog or threshold to harden, so this is the strongest
   size-unaware contender under overload, not a strawman. *)
let baseline_config (base : Kvserver.Config.t) =
  { base with Kvserver.Config.shed_watermark = Some 256; rx_capacity = Some 4096 }

let variant_points base =
  [
    ("Minos+guard", Kvserver.Design.minos, guard_config base);
    ("Minos", Kvserver.Design.minos, base);
    ("HKH+WS", Kvserver.Design.hkh_ws, baseline_config base);
  ]

let run_plan (run : Run.t) plan =
  let offered_mops = Option.value run.Run.offered_mops ~default:4.0 in
  let rows =
    variant_points (Run.config run)
    |> Par.map_list (fun (label, design, cfg) ->
           (* Each run owns its injector: the fault stream advances as the
              run consumes it, so sharing one across runs would entangle
              their decisions. *)
           let fault = Fault.Inject.create ~seed:run.Run.seed plan in
           let metrics =
             Experiment.Spec.make design
             |> Experiment.Spec.with_workload run.Run.workload
             |> Experiment.Spec.with_cfg cfg
             |> Experiment.Spec.with_seed run.Run.seed
             |> Experiment.Spec.with_load offered_mops
             |> Experiment.Spec.with_fault fault
             |> Experiment.run_spec
           in
           { plan = plan.Fault.Plan.name; label; offered_mops; metrics })
  in
  { seed = run.Run.seed; rows }

let run ?(plans = Fault.Plan.canned_names) (run : Run.t) =
  let base = Run.config run in
  let rows =
    List.concat_map
      (fun name ->
        let plan =
          match
            Fault.Plan.canned name ~cores:base.Kvserver.Config.cores
              ~warmup_us:base.Kvserver.Config.warmup_us
              ~duration_us:base.Kvserver.Config.duration_us
          with
          | Some p -> p
          | None -> invalid_arg ("Chaos.run: unknown canned plan " ^ name)
        in
        let load = plan_load ?base:run.Run.offered_mops name in
        (run_plan { run with Run.offered_mops = Some load } plan).rows)
      plans
  in
  { seed = run.Run.seed; rows }

let check t =
  let find plan label = List.find_opt (fun r -> r.plan = plan && r.label = label) t.rows in
  let guarded_beats_plain plan =
    match (find plan "Minos+guard", find plan "Minos") with
    | Some g, Some u ->
        let gp = g.metrics.Kvserver.Metrics.p99_us and up = u.metrics.Kvserver.Metrics.p99_us in
        ( gp < up,
          Printf.sprintf "%s: guarded p99 %.3f not better than plain %.3f" plan gp up )
    | _ -> (false, plan ^ ": no Minos+guard and Minos rows")
  in
  let overload =
    match find "overload" "Minos+guard" with
    | Some r ->
        [
          ( Kvserver.Metrics.shed_total r.metrics > 0,
            "overload plan: admission control shed nothing" );
          (r.metrics.Kvserver.Metrics.stable, "overload plan: guarded variant went unstable");
        ]
    | None -> [ (false, "overload plan: no Minos+guard row") ]
  in
  Report.verdict
    ([ guarded_beats_plain "core-stall"; guarded_beats_plain "loss10" ] @ overload)

let plan_names t =
  List.fold_left
    (fun acc r -> if List.mem r.plan acc then acc else acc @ [ r.plan ])
    [] t.rows

let print t =
  List.iter
    (fun plan ->
      Report.section ("Chaos: " ^ plan ^ " (seed " ^ string_of_int t.seed ^ ")");
      let plan_rows = List.filter (fun r -> r.plan = plan) t.rows in
      let offered =
        match plan_rows with r :: _ -> r.offered_mops | [] -> 0.0
      in
      let rows =
        plan_rows
        |> List.map (fun r ->
               let m = r.metrics in
               [
                 r.label;
                 Report.f1 m.Kvserver.Metrics.p50_us;
                 Report.f1 m.Kvserver.Metrics.p99_us;
                 Report.f2 m.Kvserver.Metrics.throughput_mops;
                 Report.pct (Kvserver.Metrics.goodput_fraction m);
                 string_of_int (Kvserver.Metrics.shed_total m);
                 string_of_int
                   (Obs.Ledger.sum (Kvserver.Metrics.ledger m) [ "net_dropped"; "rx_dropped" ]);
                 (if m.Kvserver.Metrics.stable then "yes" else "no");
               ])
      in
      Report.table ~title:("offered " ^ Report.f1 offered ^ " Mops")
        ~headers:
          [ "variant"; "p50 us"; "p99 us"; "tput Mops"; "goodput"; "shed"; "dropped";
            "stable" ]
        rows)
    (plan_names t)

let to_json t =
  let row r =
    let m = r.metrics in
    ( r.label,
      Obs.Json.(
        Obj
          [
            ("p99_us", Float m.Kvserver.Metrics.p99_us);
            ("p50_us", Float m.Kvserver.Metrics.p50_us);
            ("throughput_mops", Float m.Kvserver.Metrics.throughput_mops);
            ("goodput", Float (Kvserver.Metrics.goodput_fraction m));
            ("stable", Bool m.Kvserver.Metrics.stable);
            ("ledger", Obs.Ledger.to_json (Kvserver.Metrics.ledger m));
          ]) )
  in
  let plan name =
    let rows = List.filter (fun r -> r.plan = name) t.rows in
    let offered =
      match rows with r :: _ -> [ ("offered_mops", Obs.Json.Float r.offered_mops) ] | [] -> []
    in
    (name, Obs.Json.Obj (offered @ List.map row rows))
  in
  Obs.Json.(Obj [ ("seed", Int t.seed); ("plans", Obj (List.map plan (plan_names t))) ])

let report = { Run.noun = "chaos"; print; to_json; check }
