(* Tests for the Figures API itself (quick-scale): data-shape properties
   of each figure's returned structure, beyond the paper-claim assertions
   in test_integration. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let scale = Minos.Experiment.quick_scale

let test_fig2_series_complete () =
  let series = Minos.Figures.fig2 ~requests:30_000 ~loads:[ 0.2; 0.6 ] () in
  (* 3 disciplines x 4 K values. *)
  check int "12 series" 12 (List.length series);
  List.iter
    (fun (s : Minos.Figures.fig2_series) ->
      check int "two points" 2 (List.length s.Minos.Figures.points);
      List.iter
        (fun (_, p99) -> if p99 < 1.0 then Alcotest.fail "p99 below service time")
        s.Minos.Figures.points)
    series

let test_fig2_k_monotone () =
  (* At fixed load and discipline, p99 is nondecreasing in K. *)
  let series = Minos.Figures.fig2 ~requests:60_000 ~loads:[ 0.5 ] () in
  List.iter
    (fun d ->
      let p99_of k =
        match
          List.find_opt
            (fun s -> s.Minos.Figures.discipline = d && s.Minos.Figures.k = k)
            series
        with
        | Some s -> snd (List.hd s.Minos.Figures.points)
        | None -> Alcotest.fail "missing series"
      in
      let p1 = p99_of 1.0 and p100 = p99_of 100.0 and p1000 = p99_of 1000.0 in
      check bool "K=100 worse than K=1" true (p100 >= p1);
      check bool "K=1000 worse than K=100" true (p1000 >= p100))
    [ Queueing.Models.Per_core_queues; Queueing.Models.Single_queue;
      Queueing.Models.Work_stealing ]

let test_fig9_shares_sum_to_one () =
  let rows = Minos.Figures.fig9 ~scale ~p_values:[ 0.125 ] () in
  List.iter
    (fun r ->
      let sum a = Array.fold_left ( +. ) 0.0 a in
      if abs_float (sum r.Minos.Figures.ops_share -. 1.0) > 0.01 then
        Alcotest.fail "ops shares do not sum to 1";
      if abs_float (sum r.Minos.Figures.packet_share -. 1.0) > 0.01 then
        Alcotest.fail "packet shares do not sum to 1";
      check bool "has small pool" true (r.Minos.Figures.n_small >= 1))
    rows

let test_fig8_sampling_monotone () =
  let series =
    Minos.Figures.fig8 ~scale ~samplings:[ 1.0; 0.5 ] ~loads:[ 1.0 ] ()
  in
  match series with
  | [ full; half ] ->
      let util (s : Minos.Figures.fig8_series) =
        (snd (List.hd s.Minos.Figures.points)).Kvserver.Metrics.nic_tx_utilization
      in
      check bool "less sampling, less nic" true (util half < util full)
  | _ -> Alcotest.fail "expected two series"

let test_fig4_has_large_percentiles () =
  let curves = Minos.Figures.fig4 ~scale ~loads:[ 2.0 ] () in
  check int "two designs" 2 (List.length curves);
  List.iter
    (fun (c : Minos.Figures.curve) ->
      let _, m = List.hd c.Minos.Figures.points in
      check bool "large p99 measured" true
        ((not (Float.is_nan m.Kvserver.Metrics.large_p99_us))
        && m.Kvserver.Metrics.large_p99_us > m.Kvserver.Metrics.p99_us))
    curves

let test_fanout_analysis () =
  let rows = Minos.Figures.fanout ~scale ~fanouts:[ 1; 50 ] ~load:3.0 () in
  match rows with
  | [ one; fifty ] ->
      (* Fan-out response times are monotone in N for both designs. *)
      check bool "minos monotone" true
        (fifty.Minos.Figures.minos_p99_us >= one.Minos.Figures.minos_p99_us);
      check bool "hkh monotone" true
        (fifty.Minos.Figures.hkh_p99_us >= one.Minos.Figures.hkh_p99_us);
      (* Minos wins at any fan-out; the relative gap is largest at N=1. *)
      check bool "minos wins at N=1" true
        (one.Minos.Figures.minos_p99_us < one.Minos.Figures.hkh_p99_us);
      check bool "minos wins at N=50" true
        (fifty.Minos.Figures.minos_p99_us < fifty.Minos.Figures.hkh_p99_us);
      let gap (r : Minos.Figures.fanout_row) =
        r.Minos.Figures.hkh_p99_us /. r.Minos.Figures.minos_p99_us
      in
      check bool "gap shrinks with fanout" true (gap one > gap fifty)
  | _ -> Alcotest.fail "expected two rows"

let test_print_functions_do_not_raise () =
  (* The cheap printers; the expensive ones are exercised by bench runs. *)
  List.iter
    (fun name -> (snd (List.assoc name Minos.Figures.table)) true)
    [ "fig1"; "table1" ];
  Format.printf "%a@." Kvserver.Metrics.pp_row
    (Minos.Experiment.Spec.make Kvserver.Design.hkh
    |> Minos.Experiment.with_scale scale
    |> Minos.Experiment.Spec.with_load 1.0
    |> Minos.Experiment.run_spec);
  Format.printf "%a@." Workload.Spec.pp Workload.Spec.default;
  check bool "printed" true true

let () =
  Alcotest.run "figures"
    [
      ( "fig2",
        [
          Alcotest.test_case "series complete" `Quick test_fig2_series_complete;
          Alcotest.test_case "monotone in K" `Slow test_fig2_k_monotone;
        ] );
      ("fig9", [ Alcotest.test_case "shares sum to one" `Slow test_fig9_shares_sum_to_one ]);
      ("fig8", [ Alcotest.test_case "sampling monotone" `Slow test_fig8_sampling_monotone ]);
      ("fig4", [ Alcotest.test_case "large percentiles" `Slow test_fig4_has_large_percentiles ]);
      ("fanout", [ Alcotest.test_case "analysis" `Slow test_fanout_analysis ]);
      ( "printers",
        [ Alcotest.test_case "do not raise" `Quick test_print_functions_do_not_raise ] );
    ]
