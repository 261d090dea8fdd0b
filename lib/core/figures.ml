type scale = Experiment.scale

let default_loads = [ 0.5; 1.0; 2.0; 3.0; 4.0; 4.5; 5.0; 5.5; 6.0; 6.5 ]

(* One simulated point: [design] on the flat [workload] at [load] Mops. *)
let point ~cfg design workload load =
  Experiment.Spec.make design
  |> Experiment.Spec.with_workload_spec workload
  |> Experiment.Spec.with_cfg cfg
  |> Experiment.Spec.with_load load

(* ------------------------------------------------------------------ *)
(* Figure 1 *)

let fig1_sizes =
  [ 1; 4; 13; 64; 256; 1_000; 1_400; 4_000; 16_000; 64_000; 125_000; 250_000;
    500_000; 1_000_000 ]

let fig1 () =
  let cost = Kvserver.Cost_model.default in
  let tx = Netsim.Txlink.create ~gbps:40.0 in
  List.map
    (fun size ->
      let cpu = Kvserver.Cost_model.cpu_time cost Kvserver.Cost_model.Get ~item_size:size in
      let wire_bytes =
        Netsim.Frame.wire_bytes_for_payload
          (Kvserver.Cost_model.reply_payload Kvserver.Cost_model.Get ~item_size:size)
      in
      (* A single closed-loop client: no queueing anywhere, so the reply
         occupies an idle line.  Like the paper's Figure 1, this is the
         server-internal interval (request reception to reply
         transmission), so the fixed client/NIC pipeline latency is
         excluded. *)
      let wire_us = float_of_int wire_bytes *. 8.0e-3 /. Netsim.Txlink.gbps tx in
      (size, cpu +. wire_us))
    fig1_sizes

let print_fig1 () =
  Report.section "Figure 1: GET service time vs item size (closed loop)";
  let rows =
    List.map
      (fun (size, us) -> [ Printf.sprintf "%d" size; Report.f2 us ])
      (fig1 ())
  in
  Report.table ~title:"service time" ~headers:[ "item bytes"; "service us" ] rows;
  let small = List.assoc 64 (fig1 ()) and big = List.assoc 1_000_000 (fig1 ()) in
  Report.note "1MB / 64B service-time ratio: %.0fx (paper: up to ~4 orders of magnitude)"
    (big /. small)

(* ------------------------------------------------------------------ *)
(* Figure 2 *)

type fig2_series = {
  discipline : Queueing.Models.discipline;
  k : float;
  points : (float * float) list;
}

let fig2_loads = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]
let fig2_ks = [ 1.0; 10.0; 100.0; 1000.0 ]

let fig2 ?(requests = 200_000) ?(loads = fig2_loads) () =
  List.concat_map
    (fun discipline -> List.map (fun k -> (discipline, k)) fig2_ks)
    [ Queueing.Models.Per_core_queues; Queueing.Models.Single_queue;
      Queueing.Models.Work_stealing ]
  |> Par.map_list (fun (discipline, k) ->
         let cfg = { Queueing.Models.default_config with k; requests } in
         let points =
           Queueing.Models.sweep discipline cfg ~loads
           |> List.map (fun (load, r) -> (load, r.Queueing.Models.p99))
         in
         { discipline; k; points })

let print_fig2 ~requests () =
  Report.section
    "Figure 2: 99p response time vs load, size-unaware sharding (bimodal service, \
     pL=0.125%)";
  let series = fig2 ~requests () in
  List.iter
    (fun (d : Queueing.Models.discipline) ->
      let of_k k =
        (List.find (fun s -> s.discipline = d && s.k = k) series).points
      in
      let k1 = of_k 1.0 and k10 = of_k 10.0 and k100 = of_k 100.0 and k1000 = of_k 1000.0 in
      let rows =
        List.map2
          (fun (load, p1) ((_, p10), (_, p100), (_, p1000)) ->
            [ Report.f2 load; Report.f1 p1; Report.f1 p10; Report.f1 p100;
              Report.f1 p1000 ])
          k1
          (List.map2
             (fun a (b, c) -> (a, b, c))
             k10
             (List.map2 (fun b c -> (b, c)) k100 k1000))
      in
      Report.table
        ~title:(Queueing.Models.discipline_name d ^ " (p99 in small-service units)")
        ~headers:[ "load"; "K=1"; "K=10"; "K=100"; "K=1000" ]
        rows)
    [ Queueing.Models.Per_core_queues; Queueing.Models.Single_queue;
      Queueing.Models.Work_stealing ]

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let table1 ?(mc_samples = 500_000) () =
  Par.map_list
    (fun (p_large, s_large_max) ->
      let spec =
        { Workload.Spec.default with Workload.Spec.p_large; s_large_max }
      in
      let analytic = Workload.Spec.percent_data_large spec in
      (* Monte-Carlo check through the actual generator. *)
      let dataset = Experiment.dataset_for spec in
      let gen = Workload.Generator.create ~p_large ~get_ratio:1.0 dataset in
      let total = ref 0.0 and large = ref 0.0 in
      for _ = 1 to mc_samples do
        let r = Workload.Generator.next gen in
        let b = float_of_int r.Workload.Generator.item_size in
        total := !total +. b;
        if r.Workload.Generator.is_large then large := !large +. b
      done;
      (p_large, s_large_max, analytic, 100.0 *. !large /. !total))
    Workload.Spec.table1_profiles

let print_table1 () =
  Report.section "Table 1: item size variability profiles";
  let rows =
    List.map
      (fun (p, s, analytic, mc) ->
        [ Printf.sprintf "%.4f" p; Printf.sprintf "%d KB" (s / 1000);
          Report.f1 analytic; Report.f1 mc ])
      (table1 ())
  in
  Report.table ~title:"% of transferred data due to large requests"
    ~headers:[ "% large reqs"; "max size"; "% data (analytic)"; "% data (measured)" ]
    rows;
  Report.note "paper reports: 25 / 40 / 60 / 25 / 60 / 75 / 80"

(* ------------------------------------------------------------------ *)
(* Figures 3, 4, 5 *)

type curve = {
  design : Experiment.design;
  points : (float * Kvserver.Metrics.t) list;
}

let run_curves ?(scale = Experiment.full_scale) ?(loads = default_loads) spec designs =
  let cfg = Experiment.config_of_scale scale in
  List.map
    (fun design ->
      { design; points = Experiment.sweep ~cfg ~sho_best:true design spec ~loads_mops:loads })
    designs

let print_curves title curves =
  let headers =
    "offered Mops"
    :: List.concat_map
         (fun c ->
           let n = Experiment.design_name c.design in
           [ n ^ " tput"; n ^ " p99us" ])
         curves
  in
  let loads = List.map fst (List.hd curves).points in
  let rows =
    List.mapi
      (fun i load ->
        Report.f2 load
        :: List.concat_map
             (fun c ->
               let _, m = List.nth c.points i in
               [
                 Report.f2 m.Kvserver.Metrics.throughput_mops;
                 (if m.Kvserver.Metrics.stable then Report.f1 m.Kvserver.Metrics.p99_us
                  else "sat");
               ])
             curves)
      loads
  in
  Report.table ~title ~headers rows

let fig3 ?scale ?loads () =
  run_curves ?scale ?loads Workload.Spec.default Experiment.all_designs

let print_fig3 ~scale () =
  Report.section "Figure 3: throughput vs 99p latency, default workload";
  print_curves "default workload (95:5, pL=0.125%, sL=500KB)" (fig3 ~scale ())

let fig5 ?scale ?loads () =
  run_curves ?scale ?loads Workload.Spec.write_intensive Experiment.all_designs

let print_fig5 ~scale () =
  Report.section "Figure 5: throughput vs 99p latency, 50:50 GET:PUT";
  print_curves "write-intensive workload" (fig5 ~scale ())

let fig4 ?scale ?loads () =
  run_curves ?scale ?loads Workload.Spec.default [ Kvserver.Design.minos; Kvserver.Design.hkh_ws ]

let print_fig4 ~scale () =
  Report.section "Figure 4: 99p latency of LARGE requests, default workload";
  let curves = fig4 ~scale () in
  let loads = List.map fst (List.hd curves).points in
  let rows =
    List.mapi
      (fun i load ->
        Report.f2 load
        :: List.map
             (fun c ->
               let _, m = List.nth c.points i in
               if m.Kvserver.Metrics.stable then
                 Report.f0 m.Kvserver.Metrics.large_p99_us
               else "sat")
             curves)
      loads
  in
  Report.table ~title:"99p of requests for large items (us)"
    ~headers:[ "offered Mops"; "Minos"; "HKH+WS" ]
    rows;
  (* Per-class tails and wait breakdown at each design's highest stable
     load — where the small/large split pays off. *)
  List.iter
    (fun c ->
      match
        List.filter (fun (_, m) -> m.Kvserver.Metrics.stable) c.points
        |> List.rev
      with
      | (_, m) :: _ ->
          Report.note "%s" (Format.asprintf "%a" Kvserver.Metrics.pp_breakdown m)
      | [] -> ())
    curves

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7 *)

type slo_row = {
  varied : float;
  slo_us : float;
  minos_mops : float;
  hkh_mops : float;
  hkh_ws_mops : float;
  sho_mops : float;
}

(* SLO searches run many simulations per reported number; a shorter
   measurement window (still >= 10^5 samples per point at the loads that
   matter) keeps Figures 6 and 7 tractable without changing the verdicts. *)
let slo_cfg scale =
  let cfg = Experiment.config_of_scale scale in
  {
    cfg with
    Kvserver.Config.duration_us = 0.6 *. cfg.Kvserver.Config.duration_us;
    warmup_us = 0.6 *. cfg.Kvserver.Config.warmup_us;
    epoch_us = 0.6 *. cfg.Kvserver.Config.epoch_us;
  }

let slo_rows ?(scale = Experiment.full_scale) specs ~varied_of =
  let cfg = slo_cfg scale in
  (* One parallel job per (workload, SLO) row; each row runs its four
     bisections sequentially inside the job. *)
  List.concat_map (fun spec -> List.map (fun slo_us -> (spec, slo_us)) [ 50.0; 100.0 ])
    specs
  |> Par.map_list (fun (spec, slo_us) ->
         let max d =
           let point =
             Experiment.Spec.make d
             |> Experiment.Spec.with_workload_spec spec
             |> Experiment.Spec.with_cfg cfg
           in
           (Slo_search.max_under_slo point ~slo_us ~iters:scale.Experiment.slo_iters)
             .Slo_search.max_mops
         in
         {
           varied = varied_of spec;
           slo_us;
           minos_mops = max Kvserver.Design.minos;
           hkh_mops = max Kvserver.Design.hkh;
           hkh_ws_mops = max Kvserver.Design.hkh_ws;
           sho_mops = max Kvserver.Design.sho;
         })

let fig6 ?scale ?(p_values = [ 0.0625; 0.125; 0.25; 0.5; 0.75 ]) () =
  let specs = List.map (Workload.Spec.with_p_large Workload.Spec.default) p_values in
  slo_rows ?scale specs ~varied_of:(fun s -> s.Workload.Spec.p_large)

let fig7 ?scale ?(s_values = [ 250_000; 500_000; 1_000_000 ]) () =
  let specs = List.map (Workload.Spec.with_s_large Workload.Spec.default) s_values in
  slo_rows ?scale specs ~varied_of:(fun s -> float_of_int s.Workload.Spec.s_large_max)

let speedup a b = if b > 0.0 then a /. b else Float.infinity

let print_slo_rows ~varied_label ~format_varied rows =
  let rows_txt =
    List.map
      (fun r ->
        [
          format_varied r.varied;
          Report.f0 r.slo_us;
          Report.f2 r.minos_mops;
          Report.f2 r.hkh_mops;
          Report.f2 r.hkh_ws_mops;
          Report.f2 r.sho_mops;
          Report.f2 (speedup r.minos_mops r.hkh_mops);
          Report.f2 (speedup r.minos_mops r.hkh_ws_mops);
          Report.f2 (speedup r.minos_mops r.sho_mops);
        ])
      rows
  in
  Report.table ~title:"max throughput under SLO (Mops) and Minos speedups"
    ~headers:
      [ varied_label; "SLO us"; "Minos"; "HKH"; "HKH+WS"; "SHO"; "xHKH"; "xWS"; "xSHO" ]
    rows_txt

let print_fig6 ~scale () =
  Report.section "Figure 6: max throughput under 99p SLO vs % of large requests";
  print_slo_rows ~varied_label:"pL %"
    ~format_varied:(Printf.sprintf "%.4f")
    (fig6 ~scale ())

let print_fig7 ~scale () =
  Report.section "Figure 7: max throughput under 99p SLO vs max large item size";
  print_slo_rows ~varied_label:"sL"
    ~format_varied:(fun s -> Printf.sprintf "%.0f KB" (s /. 1000.0))
    (fig7 ~scale ())

(* ------------------------------------------------------------------ *)
(* Figure 8 *)

type fig8_series = {
  sampling : float;
  points : (float * Kvserver.Metrics.t) list;
}

let fig8_loads = [ 0.5; 1.0; 1.5; 2.0; 2.5; 3.0; 3.5; 4.0; 4.5 ]

let fig8 ?(scale = Experiment.full_scale) ?(samplings = [ 1.0; 0.75; 0.5; 0.25 ])
    ?(loads = fig8_loads) () =
  let spec = Workload.Spec.with_p_large Workload.Spec.default 0.75 in
  (* The sweep inside each series already fans out across domains. *)
  List.map
    (fun sampling ->
      let cfg =
        { (Experiment.config_of_scale scale) with Kvserver.Config.sampling }
      in
      { sampling; points = Experiment.sweep ~cfg Kvserver.Design.minos spec ~loads_mops:loads })
    samplings

let print_fig8 ~scale () =
  Report.section
    "Figure 8: Minos with more network bandwidth (reply sampling, pL=0.75)";
  let series = fig8 ~scale () in
  let loads = List.map fst (List.hd series).points in
  let rows =
    List.mapi
      (fun i load ->
        Report.f2 load
        :: List.concat_map
             (fun s ->
               let _, m = List.nth s.points i in
               [
                 (if m.Kvserver.Metrics.stable then Report.f1 m.Kvserver.Metrics.p99_us
                  else "sat");
                 Report.pct m.Kvserver.Metrics.nic_tx_utilization;
               ])
             series)
      loads
  in
  Report.table ~title:"p99 (us) and NIC utilization per sampling rate S"
    ~headers:
      ("offered Mops"
      :: List.concat_map
           (fun s ->
             let l = Printf.sprintf "S=%.0f" (100.0 *. s.sampling) in
             [ l ^ " p99"; l ^ " nic" ])
           series)
    rows

(* ------------------------------------------------------------------ *)
(* Figure 9 *)

type fig9_row = {
  p_large : float;
  n_small : int;
  ops_share : float array;
  packet_share : float array;
}

let fig9 ?(scale = Experiment.full_scale) ?(p_values = [ 0.0625; 0.25; 0.75 ]) () =
  let cfg = Experiment.config_of_scale scale in
  Par.map_list
    (fun p_large ->
      let spec = Workload.Spec.with_p_large Workload.Spec.default p_large in
      (* A high-but-stable load so the balance is meaningful. *)
      let m = Experiment.run_spec (point ~cfg Kvserver.Design.minos spec 2.0) in
      let share arr =
        let total = Array.fold_left ( + ) 0 arr in
        Array.map (fun v -> float_of_int v /. float_of_int (max total 1)) arr
      in
      {
        p_large;
        n_small =
          Array.length m.Kvserver.Metrics.per_core_ops
          - m.Kvserver.Metrics.final_large_cores;
        ops_share = share m.Kvserver.Metrics.per_core_ops;
        packet_share = share m.Kvserver.Metrics.per_core_packets;
      })
    p_values

let print_fig9 ~scale () =
  Report.section "Figure 9: per-core load breakdown in Minos (at 2.0 Mops)";
  List.iter
    (fun row ->
      let cores = Array.length row.ops_share in
      let rows_txt =
        List.init cores (fun i ->
            [
              Printf.sprintf "core %d%s" i (if i >= row.n_small then " (large)" else "");
              Report.pct row.ops_share.(i);
              Report.pct row.packet_share.(i);
            ])
      in
      Report.table
        ~title:(Printf.sprintf "pL = %.4f%% (%d small cores)" row.p_large row.n_small)
        ~headers:[ "core"; "% ops"; "% packets" ]
        rows_txt)
    (fig9 ~scale ())

(* ------------------------------------------------------------------ *)
(* Figure 10 *)

type fig10_result = {
  minos_p99 : (float * float) list;
  hkh_ws_p99 : (float * float) list;
  large_cores : (float * int) list;
}

(* The paper fixes the arrival rate at 2.25 Mops ("high load for
   pL = 0.75").  Our NIC-bound calibration saturates slightly below that
   in the heavy phase (see EXPERIMENTS.md), so the default here is 2.0 —
   still ~95 % NIC utilization at pL = 0.75. *)
let fig10 ?(scale = Experiment.full_scale) ?(rate_mops = 2.0) () =
  let phase p =
    { Workload.Dynamic.duration_us = scale.Experiment.phase_us; p_large = p }
  in
  let schedule =
    Workload.Dynamic.create
      (List.map phase [ 0.125; 0.25; 0.5; 0.75; 0.5; 0.25; 0.125 ])
  in
  let total = Workload.Dynamic.total_duration schedule in
  let cfg =
    {
      (Experiment.config_of_scale scale) with
      Kvserver.Config.duration_us = total;
      warmup_us = 0.0;
      window_us = Some scale.Experiment.window_us;
    }
  in
  let run design =
    point ~cfg design Workload.Spec.default rate_mops
    |> Experiment.Spec.with_dynamic schedule
    |> Experiment.run_spec
  in
  let minos, ws =
    match Par.map_list run [ Kvserver.Design.minos; Kvserver.Design.hkh_ws ] with
    | [ m; w ] -> (m, w)
    | _ -> assert false
  in
  let to_seconds series = List.map (fun (t, v) -> (t /. 1.0e6, v)) series in
  {
    minos_p99 = to_seconds minos.Kvserver.Metrics.p99_series;
    hkh_ws_p99 = to_seconds ws.Kvserver.Metrics.p99_series;
    large_cores =
      List.map (fun (t, v) -> (t /. 1.0e6, v)) minos.Kvserver.Metrics.large_core_series;
  }

let print_fig10 ~scale () =
  Report.section "Figure 10: dynamic workload (pL cycles 0.125 -> 0.75 -> 0.125)";
  let r = fig10 ~scale () in
  let cores_at t =
    (* The latest control decision at or before this window. *)
    List.fold_left
      (fun acc (ct, n) -> if ct <= t then n else acc)
      0 r.large_cores
  in
  let rows =
    List.map2
      (fun (t, minos) (_, ws) ->
        [ Report.f2 t; Report.f1 minos; Report.f1 ws;
          string_of_int (cores_at t) ])
      r.minos_p99 r.hkh_ws_p99
  in
  Report.table ~title:"per-window 99p latency and Minos large-core count"
    ~headers:[ "t (s)"; "Minos p99us"; "HKH+WS p99us"; "large cores" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fan-out analysis *)

type fanout_row = { fanout : int; minos_p99_us : float; hkh_p99_us : float }

let max_of_n_quantile ~rng latencies n ~q ~trials =
  let len = Stats.Float_vec.length latencies in
  let samples =
    Array.init trials (fun _ ->
        let m = ref 0.0 in
        for _ = 1 to n do
          let v = Stats.Float_vec.get latencies (Dsim.Rng.int rng len) in
          if v > !m then m := v
        done;
        !m)
  in
  Stats.Quantile.of_array samples q

let fanout ?(scale = Experiment.full_scale) ?(fanouts = [ 1; 10; 40; 100 ])
    ?(load = 4.0) () =
  let cfg = Experiment.config_of_scale scale in
  let minos_lat, hkh_lat =
    match
      Par.map_list
        (fun design ->
          snd (Experiment.run_spec_raw (point ~cfg design Workload.Spec.default load)))
        [ Kvserver.Design.minos; Kvserver.Design.hkh ]
    with
    | [ m; h ] -> (m, h)
    | _ -> assert false
  in
  let rng = Dsim.Rng.create 1234 in
  List.map
    (fun n ->
      {
        fanout = n;
        minos_p99_us = max_of_n_quantile ~rng minos_lat n ~q:0.99 ~trials:50_000;
        hkh_p99_us = max_of_n_quantile ~rng hkh_lat n ~q:0.99 ~trials:50_000;
      })
    fanouts

let print_fanout ~scale () =
  Report.section
    "Fan-out analysis: p99 of a request that fans out to N parallel lookups (4 Mops)";
  let rows =
    List.map
      (fun r ->
        [ string_of_int r.fanout; Report.f1 r.minos_p99_us; Report.f1 r.hkh_p99_us;
          Printf.sprintf "%.1fx" (r.hkh_p99_us /. r.minos_p99_us) ])
      (fanout ~scale ())
  in
  Report.table ~title:"max-of-N response time, default workload"
    ~headers:[ "fan-out N"; "Minos p99 us"; "HKH p99 us"; "gap" ]
    rows;
  Report.note
    "with high fan-out, nearly every user-visible operation samples the server's tail \
     (Dean & Barroso, 'The Tail at Scale') — which is why the paper optimizes p99"

(* ------------------------------------------------------------------ *)
(* Ablations *)

let print_ablation_threshold ~scale () =
  Report.section
    "Ablation: adaptive vs static threshold (write-intensive, cf. §6.2)";
  let cfg = Experiment.config_of_scale scale in
  let static =
    { cfg with Kvserver.Config.static_threshold = Some 1472.0 }
  in
  let rows =
    Par.map_list
      (fun (label, cfg) ->
        let m =
          Experiment.run_spec
            (point ~cfg Kvserver.Design.minos Workload.Spec.write_intensive 5.5)
        in
        [ label; Report.f2 m.Kvserver.Metrics.throughput_mops;
          (if m.Kvserver.Metrics.stable then Report.f1 m.Kvserver.Metrics.p99_us
           else "sat");
          Report.f0 m.Kvserver.Metrics.final_threshold ])
      [ ("adaptive", cfg); ("static 1472B", static) ]
  in
  Report.table ~title:"Minos at 5.5 Mops offered, 50:50"
    ~headers:[ "variant"; "tput Mops"; "p99 us"; "threshold B" ]
    rows

let print_ablation_cost_fn ~scale () =
  Report.section "Ablation: control-loop cost function";
  let base = Experiment.config_of_scale scale in
  let rows =
    Par.map_list
      (fun cost_fn ->
        let cfg = { base with Kvserver.Config.cost_fn } in
        let m =
          Experiment.run_spec (point ~cfg Kvserver.Design.minos Workload.Spec.default 4.5)
        in
        [ Kvserver.Cost_model.cost_fn_name cost_fn;
          Report.f2 m.Kvserver.Metrics.throughput_mops;
          Report.f1 m.Kvserver.Metrics.p99_us;
          string_of_int m.Kvserver.Metrics.final_large_cores ])
      [ Kvserver.Cost_model.Packets; Kvserver.Cost_model.Bytes;
        Kvserver.Cost_model.Constant_plus_bytes 1500.0 ]
  in
  Report.table ~title:"Minos at 4.5 Mops, default workload"
    ~headers:[ "cost fn"; "tput Mops"; "p99 us"; "large cores" ]
    rows

let print_ablation_steal ~scale () =
  Report.section "Ablation: large-core RX stealing (future-work variant of §6.1)";
  let base = Experiment.config_of_scale scale in
  let rows =
    Par.map_list
      (fun (label, large_rx_steal) ->
        let cfg = { base with Kvserver.Config.large_rx_steal } in
        let m =
          Experiment.run_spec (point ~cfg Kvserver.Design.minos Workload.Spec.default 4.5)
        in
        [ label;
          Report.f1 m.Kvserver.Metrics.p99_us;
          Report.f0 m.Kvserver.Metrics.large_p99_us;
          string_of_int m.Kvserver.Metrics.final_large_cores ])
      [ ("baseline Minos", false); ("+1 large core & RX steal", true) ]
  in
  Report.table ~title:"Minos at 4.5 Mops, default workload"
    ~headers:[ "variant"; "p99 us"; "large p99 us"; "large cores" ]
    rows

(* The paper picks CREW for HKH (§5.2): "This policy performs the best
   on skewed read-dominated workloads". *)
let print_ablation_erew ~scale () =
  Report.section "Ablation: HKH dispatch mode — CREW vs EREW under zipf skew";
  let base = Experiment.config_of_scale scale in
  let rows =
    List.concat_map
      (fun (label, hkh_erew) -> List.map (fun load -> (label, hkh_erew, load)) [ 3.0; 5.0 ])
      [ ("CREW", false); ("EREW", true) ]
    |> Par.map_list (fun (label, hkh_erew, load) ->
           let cfg = { base with Kvserver.Config.hkh_erew } in
           let m =
             Experiment.run_spec (point ~cfg Kvserver.Design.hkh Workload.Spec.default load)
           in
           let ops = m.Kvserver.Metrics.per_core_ops in
           let total = Array.fold_left ( + ) 0 ops in
           let hottest = Array.fold_left max 0 ops in
           [ label; Report.f2 load;
             (if m.Kvserver.Metrics.stable then Report.f1 m.Kvserver.Metrics.p99_us
              else "sat");
             Printf.sprintf "%.2fx"
               (float_of_int hottest *. float_of_int (Array.length ops)
               /. float_of_int (max total 1)) ])
  in
  Report.table ~title:"HKH on the default (zipf 0.99) workload"
    ~headers:[ "mode"; "offered Mops"; "p99 us"; "hottest core / mean" ]
    rows

let print_ablation_epoch ~scale () =
  Report.section "Ablation: control epoch length and smoothing alpha (dynamic workload)";
  let phase p =
    { Workload.Dynamic.duration_us = scale.Experiment.phase_us /. 2.0; p_large = p }
  in
  let schedule = Workload.Dynamic.create (List.map phase [ 0.125; 0.75; 0.125 ]) in
  let total = Workload.Dynamic.total_duration schedule in
  let rows =
    Par.map_list
      (fun (epoch_us, alpha) ->
        let cfg =
          {
            (Experiment.config_of_scale scale) with
            Kvserver.Config.duration_us = total;
            warmup_us = 0.0;
            epoch_us;
            alpha;
            window_us = Some scale.Experiment.window_us;
          }
        in
        let m =
          point ~cfg Kvserver.Design.minos Workload.Spec.default 2.25
          |> Experiment.Spec.with_dynamic schedule
          |> Experiment.run_spec
        in
        let p99s = List.map snd m.Kvserver.Metrics.p99_series in
        let worst = List.fold_left Float.max 0.0 p99s in
        let mean =
          List.fold_left ( +. ) 0.0 p99s /. float_of_int (max 1 (List.length p99s))
        in
        [ Report.f0 (epoch_us /. 1000.0); Report.f2 alpha; Report.f1 mean;
          Report.f1 worst ])
      [ (scale.Experiment.epoch_us /. 2.0, 0.9);
        (scale.Experiment.epoch_us, 0.9);
        (scale.Experiment.epoch_us *. 2.0, 0.9);
        (scale.Experiment.epoch_us, 0.5) ]
  in
  Report.table ~title:"windowed p99 across a pL step (2.25 Mops)"
    ~headers:[ "epoch ms"; "alpha"; "mean p99 us"; "worst p99 us" ]
    rows

(* ------------------------------------------------------------------ *)
(* Multi-NUMA scaling (§3): Minos at 3 Mops per domain *)

let print_numa ~scale () =
  Report.section "Multi-NUMA scaling (independent per-domain instances, §3)";
  let rows =
    List.map
      (fun domains ->
        let r =
          Numa.run ~domains
            { Run.default with Run.scale; offered_mops = Some (3.0 *. float_of_int domains) }
        in
        [
          string_of_int domains;
          Printf.sprintf "%.2f" r.Numa.total_throughput_mops;
          Report.f1 r.Numa.p50_us;
          Report.f1 r.Numa.p99_us;
          (if r.Numa.stable then "yes" else "no");
        ])
      [ 1; 2; 4 ]
  in
  Report.table ~title:"Minos at 3 Mops per domain"
    ~headers:[ "domains"; "tput Mops"; "p50 us"; "p99 us"; "stable" ]
    rows

let table =
  let scaled print quick = print ~scale:(Experiment.scale_of ~quick) () in
  [
    ("fig1", ("service time vs item size", fun _ -> print_fig1 ()));
    ( "fig2",
      ( "queueing models of size-unaware sharding",
        fun quick -> print_fig2 ~requests:(if quick then 60_000 else 300_000) () ) );
    ("table1", ("item size variability profiles", fun _ -> print_table1 ()));
    ("fig3", ("throughput vs 99p, default workload", scaled print_fig3));
    ("fig4", ("99p of large requests", scaled print_fig4));
    ("fig5", ("throughput vs 99p, 50:50", scaled print_fig5));
    ("fig6", ("max throughput under SLO vs pL", scaled print_fig6));
    ("fig7", ("max throughput under SLO vs sL", scaled print_fig7));
    ("fig8", ("network bandwidth scaling (sampling)", scaled print_fig8));
    ("fig9", ("per-core load breakdown", scaled print_fig9));
    ("fig10", ("dynamic workload", scaled print_fig10));
    ("fanout", ("tail-at-scale fan-out analysis", scaled print_fanout));
    ("ablation-threshold", ("adaptive vs static threshold", scaled print_ablation_threshold));
    ("ablation-cost", ("control-loop cost functions", scaled print_ablation_cost_fn));
    ("ablation-steal", ("large-core RX stealing variant", scaled print_ablation_steal));
    ("ablation-epoch", ("epoch length / smoothing sensitivity", scaled print_ablation_epoch));
    ("ablation-erew", ("HKH CREW vs EREW dispatch under skew", scaled print_ablation_erew));
    ("numa", ("multi-NUMA-domain scaling", scaled print_numa));
  ]
