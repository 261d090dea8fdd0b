(* Watch Minos' control loop in action (§6.6): the percentage of large
   requests steps up and back down; the controller re-derives the size
   threshold and re-allocates cores between the small and large pools
   every epoch, keeping the 99th percentile flat.

   Run with: dune exec examples/dynamic_adaptation.exe
*)

let () =
  (* Three phases: calm (pL = 0.125%), heavy (0.75%), calm again.  The
     paper uses 20-second phases; we scale to 300 ms each. *)
  let phase p = { Workload.Dynamic.duration_us = 300_000.0; p_large = p } in
  let schedule = Workload.Dynamic.create (List.map phase [ 0.125; 0.75; 0.125 ]) in
  let total = Workload.Dynamic.total_duration schedule in
  let cfg =
    {
      (Minos.Experiment.config_of_scale Minos.Experiment.quick_scale) with
      Kvserver.Config.duration_us = total;
      warmup_us = 0.0;
      epoch_us = 30_000.0;
      window_us = Some 50_000.0;
    }
  in
  let run design =
    Minos.Experiment.Spec.make design
    |> Minos.Experiment.Spec.with_cfg cfg
    |> Minos.Experiment.Spec.with_load 2.0
    |> Minos.Experiment.Spec.with_dynamic schedule
    |> Minos.Experiment.run_spec
  in
  let minos = run Kvserver.Design.minos in
  let ws = run Kvserver.Design.hkh_ws in
  let cores_at t =
    List.fold_left
      (fun acc (ct, n) -> if ct <= t then n else acc)
      0 minos.Kvserver.Metrics.large_core_series
  in
  Printf.printf "pL steps 0.125%% -> 0.75%% -> 0.125%% every 300 ms (2.0 Mops)\n\n";
  Printf.printf "%8s  %12s  %12s  %s\n" "t (ms)" "Minos p99" "HKH+WS p99" "large cores";
  List.iter2
    (fun (t, p99_minos) (_, p99_ws) ->
      Printf.printf "%8.0f  %10.1fus  %10.1fus  %d\n" (t /. 1000.0) p99_minos p99_ws
        (cores_at t))
    minos.Kvserver.Metrics.p99_series ws.Kvserver.Metrics.p99_series;
  Printf.printf "\nfinal threshold: %.0f bytes; the controller tracked the p99 item size\n"
    minos.Kvserver.Metrics.final_threshold
