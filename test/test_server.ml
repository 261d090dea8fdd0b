(* Tests for the server library: cost model, configuration, the Minos
   control loop, and engine/design mechanics on miniature runs. *)

open Kvserver

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let approx t = Alcotest.float t

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

(* ------------------------------------------------------------------ *)
(* Cost_model *)

let test_reply_sizes () =
  (* GET replies carry the value; PUT replies do not. *)
  let g = Cost_model.reply_payload Cost_model.Get ~item_size:1000 in
  let p = Cost_model.reply_payload Cost_model.Put ~item_size:1000 in
  check bool "get reply bigger" true (g > 1000);
  check bool "put reply small" true (p < 100)

let test_request_sizes () =
  let g = Cost_model.request_payload Cost_model.Get ~item_size:500_000 in
  let p = Cost_model.request_payload Cost_model.Put ~item_size:500_000 in
  check bool "get request small regardless of item" true (g < 100);
  check bool "put request carries value" true (p > 500_000)

let test_frames () =
  check int "small get: 1 frame reply" 1
    (Cost_model.reply_frames Cost_model.Get ~item_size:100);
  check bool "large get: many frames" true
    (Cost_model.reply_frames Cost_model.Get ~item_size:500_000 > 300);
  check int "put reply: 1 frame" 1 (Cost_model.reply_frames Cost_model.Put ~item_size:500_000);
  check bool "large put request: many frames" true
    (Cost_model.request_frames Cost_model.Put ~item_size:500_000 > 300)

let test_cpu_monotone_in_size () =
  let c = Cost_model.default in
  let t1 = Cost_model.cpu_time c Cost_model.Get ~item_size:10 in
  let t2 = Cost_model.cpu_time c Cost_model.Get ~item_size:10_000 in
  let t3 = Cost_model.cpu_time c Cost_model.Get ~item_size:500_000 in
  check bool "monotone" true (t1 < t2 && t2 < t3);
  (* Calibration targets (DESIGN.md §3): ~1 µs small, tens of µs for
     250 KB. *)
  if t1 > 2.0 then Alcotest.failf "small GET cpu %.2f too high" t1;
  let t250 = Cost_model.cpu_time c Cost_model.Get ~item_size:250_000 in
  if t250 < 30.0 || t250 > 150.0 then Alcotest.failf "250KB cpu %.1f out of band" t250

let test_cost_fn () =
  (* Packets: GET cost follows the reply, PUT cost follows the request. *)
  let large = 500_000 in
  check (approx 1e-9) "get packets"
    (float_of_int (Cost_model.reply_frames Cost_model.Get ~item_size:large))
    (Cost_model.request_cost Cost_model.Packets Cost_model.Get ~item_size:large);
  check (approx 1e-9) "put packets"
    (float_of_int (Cost_model.request_frames Cost_model.Put ~item_size:large))
    (Cost_model.request_cost Cost_model.Packets Cost_model.Put ~item_size:large);
  check (approx 1e-9) "bytes" 1234.0
    (Cost_model.request_cost Cost_model.Bytes Cost_model.Get ~item_size:1234);
  check (approx 1e-9) "const+bytes" 1334.0
    (Cost_model.request_cost (Cost_model.Constant_plus_bytes 100.0) Cost_model.Get
       ~item_size:1234);
  check Alcotest.string "names" "packets" (Cost_model.cost_fn_name Cost_model.Packets)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_validate () =
  check bool "default ok" true (Config.validate Config.default = Ok ());
  let bad c = Config.validate c <> Ok () in
  check bool "cores" true (bad { Config.default with Config.cores = 1 });
  check bool "batch" true (bad { Config.default with Config.batch = 0 });
  check bool "sampling" true (bad { Config.default with Config.sampling = 0.0 });
  check bool "warmup" true
    (bad { Config.default with Config.warmup_us = 2.0e6; duration_us = 1.0e6 });
  check bool "alpha" true (bad { Config.default with Config.alpha = 1.5 });
  check bool "handoff" true (bad { Config.default with Config.handoff_cores = 8 })

(* ------------------------------------------------------------------ *)
(* Control *)

let size_hist = Control.size_histogram

(* A synthetic histogram shaped like the default workload. *)
let default_like_hist ?(n = 100_000) ?(p_large = 0.00125) () =
  let h = size_hist () in
  let rng = Dsim.Rng.create 2 in
  for _ = 1 to n do
    let size =
      if Dsim.Rng.unit_float rng < p_large then
        float_of_int (1500 + Dsim.Rng.int rng 498_500)
      else if Dsim.Rng.unit_float rng < 0.4 then float_of_int (1 + Dsim.Rng.int rng 13)
      else float_of_int (14 + Dsim.Rng.int rng 1387)
    in
    Stats.Log_histogram.record h size
  done;
  h

let compute ?threshold_override ?extra_large_core hist =
  Control.compute ~cores:8 ~cost_fn:Cost_model.Packets ~percentile:0.99
    ?threshold_override ?extra_large_core hist

let test_control_initial () =
  let p = Control.initial ~cores:8 in
  check int "all small" 8 p.Control.n_small;
  check int "no large" 0 p.Control.n_large;
  check bool "infinite threshold" true (p.Control.threshold = infinity);
  check int "standby is last" 7 (Control.standby_core ~cores:8)

let test_control_empty_hist_is_initial () =
  let p = compute (size_hist ()) in
  check int "standby mode" 0 p.Control.n_large

let test_control_threshold_is_p99 () =
  let h = default_like_hist () in
  let p = compute h in
  let q99 = Stats.Log_histogram.quantile h 0.99 in
  check (approx 1e-9) "threshold = hist p99" q99 p.Control.threshold;
  (* For the default-like workload the p99 of sizes sits inside the small
     class (~1.2-1.5 KB). *)
  if p.Control.threshold < 900.0 || p.Control.threshold > 1600.0 then
    Alcotest.failf "threshold %.0f outside expected band" p.Control.threshold

let test_control_default_allocates_one_large () =
  let p = compute (default_like_hist ()) in
  check int "one large core (paper, default workload)" 1 p.Control.n_large;
  check int "seven small" 7 p.Control.n_small

let test_control_heavy_large_allocates_more () =
  let p = compute (default_like_hist ~p_large:0.0075 ()) in
  (* pL = 0.75%: the paper's Fig 10 shows ~4 large cores. *)
  if p.Control.n_large < 2 || p.Control.n_large > 5 then
    Alcotest.failf "n_large %d out of band for pL=0.75" p.Control.n_large

let test_control_all_small_when_no_large () =
  let h = size_hist () in
  for i = 1 to 1000 do
    Stats.Log_histogram.record h (float_of_int (1 + (i mod 100)))
  done;
  let p = compute h in
  check int "standby mode" 0 p.Control.n_large;
  (* route still sends an (unexpected) large request somewhere: the
     standby core. *)
  check int "routes to standby" 0 (Control.route_idx p 5000.0);
  check int "standby physical id" 7 (Control.large_core_id p ~cores:8 0)

let test_control_ranges_cover_and_are_ordered () =
  let p = compute (default_like_hist ~p_large:0.01 ()) in
  let n = Array.length p.Control.ranges in
  check int "ranges = n_large" p.Control.n_large n;
  if n > 0 then begin
    let lo0, _ = p.Control.ranges.(0) in
    check (approx 1e-9) "first range starts at threshold" p.Control.threshold lo0;
    for i = 0 to n - 2 do
      let _, hi = p.Control.ranges.(i) in
      let lo', _ = p.Control.ranges.(i + 1) in
      check (approx 1e-9) "contiguous" hi lo'
    done;
    let _, last_hi = p.Control.ranges.(n - 1) in
    check bool "open ended" true (last_hi = infinity)
  end

let test_control_route () =
  let p = compute (default_like_hist ~p_large:0.01 ()) in
  check int "small routes to -1" (-1) (Control.route_idx p (p.Control.threshold -. 1.0));
  check int "smallest large goes to core 0" 0
    (Control.route_idx p (p.Control.threshold +. 1.0));
  check int "oversized goes to last" (p.Control.n_large - 1) (Control.route_idx p 1.0e9);
  check bool "is_small_core" true (Control.is_small_core p 0);
  check bool "large ids at tail" true
    (not (Control.is_small_core p (Control.large_core_id p ~cores:8 0)))

let test_control_static_threshold_override () =
  let p = compute ~threshold_override:1472.0 (default_like_hist ()) in
  check (approx 1e-9) "override respected" 1472.0 p.Control.threshold

let test_control_extra_large_core () =
  let base = compute (default_like_hist ()) in
  let extra = compute ~extra_large_core:true (default_like_hist ()) in
  check int "one more large" (base.Control.n_large + 1) extra.Control.n_large

(* The shed rule's boundaries: strictly above the watermark for large,
   strictly above 4x the watermark for small. *)
let test_control_shed_boundaries () =
  let shed backlog ~large = Control.shed ~watermark:10 ~backlog ~large in
  check bool "large at the watermark kept" false (shed 10 ~large:true);
  check bool "large above the watermark shed" true (shed 11 ~large:true);
  check bool "small above the watermark kept" false (shed 11 ~large:false);
  check bool "small at 4x kept" false (shed 40 ~large:false);
  check bool "small above 4x shed" true (shed 41 ~large:false);
  check bool "large at 4x shed" true (shed 40 ~large:true)

let test_control_fair_share () =
  check int "ceil 32/3" 11 (Control.fair_share ~batch:32 ~readers:3);
  check int "even split" 8 (Control.fair_share ~batch:32 ~readers:4);
  check int "no readers counts as one" 32 (Control.fair_share ~batch:32 ~readers:0)

let epoch ?static_threshold ?clamp () =
  Control.Epoch.create ?static_threshold ?clamp ~alpha:0.9 ~percentile:0.99
    ~cost_fn:Cost_model.Packets ()

let step ?(stale = false) ?(force = false) ?(corrupt = Fun.id) ep hist =
  Control.Epoch.step ep ~cores:8 ~stale ~force ~corrupt hist

let threshold_of = function
  | Some p -> p.Control.threshold
  | None -> Alcotest.fail "expected a new plan"

let test_epoch_empty_merge () =
  let ep = epoch () in
  check bool "empty merge: no plan" true (step ep (size_hist ()) = None);
  ignore (step ep (default_like_hist ()));
  check bool "empty merge after data: no plan" true (step ep (size_hist ()) = None)

let test_epoch_stale_discards () =
  let ep = epoch () in
  check bool "stale tick: no plan" true (step ~stale:true ep (default_like_hist ()) = None);
  (* The stale merge was discarded, not kept for the next tick. *)
  check bool "nothing carried over" true (step ep (size_hist ()) = None);
  check bool "no threshold learnt" true (Control.Epoch.last_good ep = infinity)

let test_epoch_static_before_first_hist () =
  let ep = epoch ~static_threshold:1472.0 () in
  let p = Control.Epoch.plan ep ~cores:8 ~corrupt:(fun _ -> Alcotest.fail "corrupted") in
  check bool "initial with the static threshold" true
    (p = { (Control.initial ~cores:8) with Control.threshold = 1472.0 });
  check bool "forced tick: the same plan" true (step ~force:true ep (size_hist ()) = Some p)

let test_epoch_nan_unclamped_passes () =
  let ep = epoch () in
  let t = threshold_of (step ~corrupt:(fun _ -> Float.nan) ep (default_like_hist ())) in
  check bool "NaN reaches the plan" true (Float.is_nan t);
  check bool "NaN is not a good threshold" true (Control.Epoch.last_good ep = infinity)

let test_epoch_nan_clamped_falls_back () =
  let ep = epoch ~clamp:0.5 () in
  let good = threshold_of (step ep (default_like_hist ())) in
  check (approx 1e-9) "last good" good (Control.Epoch.last_good ep);
  let t = threshold_of (step ~corrupt:(fun _ -> Float.nan) ep (default_like_hist ())) in
  check (approx 1e-9) "NaN falls back to the last good" good t

let test_epoch_last_good_only_sane () =
  let ep = epoch () in
  let good = threshold_of (step ep (default_like_hist ())) in
  List.iter
    (fun bad ->
      ignore (step ~corrupt:(fun _ -> bad) ep (default_like_hist ()));
      check (approx 1e-9) (Printf.sprintf "%g leaves last good" bad) good
        (Control.Epoch.last_good ep))
    [ Float.nan; 0.0; -5.0; infinity ];
  ignore (step ~corrupt:(fun _ -> 2000.0) ep (default_like_hist ()));
  check (approx 1e-9) "a sane threshold becomes last good" 2000.0
    (Control.Epoch.last_good ep)

let prop_ranges_balance_cost =
  (* The size ranges assigned to large cores carry approximately equal
     cost: no range may exceed twice the per-core average (one oversized
     histogram bucket can exceed perfect balance, but not by more). *)
  QCheck.Test.make ~name:"large-core ranges balance cost" ~count:100
    QCheck.(pair (float_range 0.002 0.03) small_nat)
    (fun (p_large, salt) ->
      let h = default_like_hist ~n:(30_000 + salt) ~p_large () in
      let p = compute h in
      QCheck.assume (p.Control.n_large >= 2);
      let module H = Stats.Log_histogram in
      let cost_of_range (lo, hi) =
        H.fold
          (fun i count acc ->
            let ub = H.bucket_upper_bound h i in
            if ub > lo && ub <= hi then
              acc +. (count *. Cost_model.cost_of_size Cost_model.Packets ub)
            else acc)
          h 0.0
      in
      let costs = Array.map cost_of_range p.Control.ranges in
      let total = Array.fold_left ( +. ) 0.0 costs in
      let avg = total /. float_of_int p.Control.n_large in
      Array.for_all (fun c -> c <= 2.2 *. avg +. 1.0) costs)

let prop_route_total =
  QCheck.Test.make ~name:"route always answers for positive sizes" ~count:200
    QCheck.(pair (float_range 1.0 2.0e6) (float_range 0.0001 0.05))
    (fun (size, p_large) ->
      let p = compute (default_like_hist ~n:20_000 ~p_large ()) in
      let j = Control.route_idx p size in
      if j < 0 then size <= p.Control.threshold
      else size > p.Control.threshold && j < max 1 p.Control.n_large)

(* ------------------------------------------------------------------ *)
(* Engine + designs: miniature runs *)

let mini_cfg =
  {
    Config.default with
    Config.duration_us = 50_000.0;
    warmup_us = 10_000.0;
    epoch_us = 5_000.0;
  }

let mini_spec =
  { Workload.Spec.default with Workload.Spec.n_keys = 50_000; n_large_keys = 64 }

let run_design ?(cfg = mini_cfg) ?(offered = 2.0) maker =
  let dataset = Workload.Dataset.create mini_spec in
  let gen = Workload.Generator.create dataset in
  let eng = Engine.create cfg gen ~offered_mops:offered in
  Engine.run eng maker

let test_engine_conservation () =
  (* Every issued request is either processed or still in flight. *)
  List.iter
    (fun maker ->
      let m = run_design maker in
      let processed = Array.fold_left ( + ) 0 m.Metrics.per_core_ops in
      check int "issued = processed + in flight" m.Metrics.issued
        (processed + m.Metrics.in_flight_end))
    [ (Design.make Design.minos); (Design.make Design.hkh); (Design.make Design.hkh_ws); (Design.make Design.sho) ]

let test_engine_throughput_tracks_offered () =
  List.iter
    (fun maker ->
      let m = run_design maker in
      check bool "stable at moderate load" true m.Metrics.stable;
      if abs_float (m.Metrics.throughput_mops -. 2.0) > 0.15 then
        Alcotest.failf "%s throughput %.2f vs offered 2.0" m.Metrics.design
          m.Metrics.throughput_mops)
    [ (Design.make Design.minos); (Design.make Design.hkh); (Design.make Design.hkh_ws); (Design.make Design.sho) ]

let test_engine_latencies_sane () =
  let m = run_design (Design.make Design.minos) in
  check bool "p50 above service floor" true (m.Metrics.p50_us > 4.0);
  check bool "p50 below 20us at 2 Mops" true (m.Metrics.p50_us < 20.0);
  check bool "p99 >= p50" true (m.Metrics.p99_us >= m.Metrics.p50_us);
  check bool "p999 >= p99" true (m.Metrics.p999_us >= m.Metrics.p99_us);
  check bool "mean between p50-ish and p999" true
    (m.Metrics.mean_us > 0.5 *. m.Metrics.p50_us && m.Metrics.mean_us < m.Metrics.p999_us)

let test_minos_forms_plan () =
  let m = run_design (Design.make Design.minos) in
  check int "one large core on default-like workload" 1 m.Metrics.final_large_cores;
  if m.Metrics.final_threshold < 900.0 || m.Metrics.final_threshold > 1600.0 then
    Alcotest.failf "threshold %.0f" m.Metrics.final_threshold

let test_minos_isolates_small_requests () =
  let minos = run_design ~offered:4.0 (Design.make Design.minos) in
  let hkh = run_design ~offered:4.0 (Design.make Design.hkh) in
  check bool "minos p99 well below hkh p99" true
    (minos.Metrics.p99_us *. 3.0 < hkh.Metrics.p99_us)

let test_minos_small_large_split_visible_in_ops () =
  let m = run_design ~offered:4.0 (Design.make Design.minos) in
  let n = Array.length m.Metrics.per_core_ops in
  let large_ops = m.Metrics.per_core_ops.(n - 1) in
  let small_ops = m.Metrics.per_core_ops.(0) in
  (* The large core serves ~1% of requests; small cores ~14% each. *)
  check bool "large core serves far fewer ops" true (large_ops * 5 < small_ops)

let test_minos_standby_when_no_larges () =
  let spec = { mini_spec with Workload.Spec.p_large = 0.0 } in
  let dataset = Workload.Dataset.create spec in
  let gen = Workload.Generator.create dataset in
  let eng = Engine.create mini_cfg gen ~offered_mops:2.0 in
  let m = Engine.run eng (Design.make Design.minos) in
  check int "no large cores" 0 m.Metrics.final_large_cores;
  check bool "stable" true m.Metrics.stable;
  let processed = Array.fold_left ( + ) 0 m.Metrics.per_core_ops in
  check int "conservation" m.Metrics.issued (processed + m.Metrics.in_flight_end)

let test_minos_static_threshold () =
  let cfg = { mini_cfg with Config.static_threshold = Some 1472.0 } in
  let m = run_design ~cfg (Design.make Design.minos) in
  check (approx 1e-9) "threshold pinned" 1472.0 m.Metrics.final_threshold;
  check bool "stable" true m.Metrics.stable

let test_minos_large_rx_steal_variant () =
  let cfg = { mini_cfg with Config.large_rx_steal = true } in
  let m = run_design ~cfg ~offered:4.0 (Design.make Design.minos) in
  check bool "stable" true m.Metrics.stable;
  check int "over-allocates one large core" 2 m.Metrics.final_large_cores;
  let processed = Array.fold_left ( + ) 0 m.Metrics.per_core_ops in
  check int "conservation" m.Metrics.issued (processed + m.Metrics.in_flight_end)

let test_sampling_reduces_nic_load () =
  let full = run_design ~offered:3.0 (Design.make Design.minos) in
  let sampled =
    run_design ~cfg:{ mini_cfg with Config.sampling = 0.25 } ~offered:3.0 (Design.make Design.minos)
  in
  check bool "nic util drops with sampling" true
    (sampled.Metrics.nic_tx_utilization < 0.6 *. full.Metrics.nic_tx_utilization);
  (* Throughput counts processed ops either way. *)
  if abs_float (sampled.Metrics.throughput_mops -. 3.0) > 0.2 then
    Alcotest.failf "sampled throughput %.2f" sampled.Metrics.throughput_mops

let test_sho_handoff_bottleneck () =
  (* With one handoff core, SHO cannot dispatch much beyond ~1/handoff_us;
     drive it past that and it must go unstable while Minos stays up. *)
  let over = 6.5 in
  let sho = run_design ~cfg:{ mini_cfg with Config.handoff_cores = 1 } ~offered:over
      (Design.make Design.sho)
  in
  let minos = run_design ~offered:over (Design.make Design.minos) in
  check bool "sho saturates first" true
    ((not sho.Metrics.stable) || sho.Metrics.p99_us > minos.Metrics.p99_us)

let test_dynamic_adapts_large_cores () =
  let schedule =
    Workload.Dynamic.create
      [ { Workload.Dynamic.duration_us = 60_000.0; p_large = 0.125 };
        { Workload.Dynamic.duration_us = 60_000.0; p_large = 0.75 } ]
  in
  let cfg = { mini_cfg with Config.duration_us = 120_000.0; warmup_us = 0.0 } in
  let dataset = Workload.Dataset.create mini_spec in
  let gen = Workload.Generator.create dataset in
  let eng = Engine.create ~dynamic:schedule cfg gen ~offered_mops:2.0 in
  let m = Engine.run eng (Design.make Design.minos) in
  (* After the switch to pL=0.75 the controller must raise n_large. *)
  let early =
    List.filter (fun (t, _) -> t < 55_000.0) m.Metrics.large_core_series
    |> List.map snd
  in
  let late =
    List.filter (fun (t, _) -> t > 80_000.0) m.Metrics.large_core_series
    |> List.map snd
  in
  let max_l = List.fold_left max 0 in
  check bool "more large cores under heavy large traffic" true
    (max_l late > max_l early || (max_l early = 0 && max_l late > 0))

let test_minos_no_epoch_during_run () =
  (* Epoch longer than the whole run: Minos never leaves cold-start
     standby mode, and must still serve everything (large requests route
     through the standby core). *)
  let cfg = { mini_cfg with Config.epoch_us = 10.0e6 } in
  let m = run_design ~cfg (Design.make Design.minos) in
  check bool "stable" true m.Metrics.stable;
  check int "standby the whole run" 0 m.Metrics.final_large_cores;
  let processed = Array.fold_left ( + ) 0 m.Metrics.per_core_ops in
  check int "conservation" m.Metrics.issued (processed + m.Metrics.in_flight_end)

let test_minimal_core_count () =
  (* Two cores is the minimum topology: one small + one large (or
     standby). *)
  let cfg = { mini_cfg with Config.cores = 2 } in
  List.iter
    (fun maker ->
      let m = run_design ~cfg ~offered:0.8 maker in
      check bool (m.Metrics.design ^ " stable on 2 cores") true m.Metrics.stable;
      let processed = Array.fold_left ( + ) 0 m.Metrics.per_core_ops in
      check int "conservation" m.Metrics.issued (processed + m.Metrics.in_flight_end))
    [ (Design.make Design.minos); (Design.make Design.hkh); (Design.make Design.hkh_ws); (Design.make Design.sho) ]

let test_batch_size_one () =
  let cfg = { mini_cfg with Config.batch = 1 } in
  let m = run_design ~cfg (Design.make Design.minos) in
  check bool "stable with batch=1" true m.Metrics.stable;
  (* Per-request polling costs more CPU but everything still completes. *)
  let processed = Array.fold_left ( + ) 0 m.Metrics.per_core_ops in
  check int "conservation" m.Metrics.issued (processed + m.Metrics.in_flight_end)

let test_aggressive_sampling () =
  let cfg = { mini_cfg with Config.sampling = 0.01 } in
  let m = run_design ~cfg (Design.make Design.minos) in
  (* 95% GETs sampled at 1% + 5% PUTs always replied: ~6% of ops produce
     latency samples, yet throughput still counts all processed ops and
     the percentiles remain computable. *)
  if abs_float (m.Metrics.throughput_mops -. 2.0) > 0.15 then
    Alcotest.failf "throughput %.2f" m.Metrics.throughput_mops;
  check bool "p99 still measurable" true (not (Float.is_nan m.Metrics.p99_us));
  check bool "stable" true m.Metrics.stable

let test_put_master_spread () =
  (* PUT dispatch must hit every core with roughly uniform frequency. *)
  let dataset = Workload.Dataset.create mini_spec in
  let gen = Workload.Generator.create ~get_ratio:0.0 dataset in
  let eng = Engine.create mini_cfg gen ~offered_mops:1.0 in
  let counts = Array.make (Engine.cores eng) 0 in
  for id = 0 to 9999 do
    let req =
      {
        Engine.slot = 0;
        op = Cost_model.Put;
        key_id = id;
        item_size = 100;
        is_large_truth = false;
        frames_in = 1;
        rx_queue = 0;
        span = -1;
        scan_len = 0;
        miss = false;
      }
    in
    let q = Engine.put_master eng req in
    counts.(q) <- counts.(q) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = 10000 / Array.length counts in
      if abs (c - expected) > expected / 2 then
        Alcotest.failf "core %d receives %d of 10000 puts" i c)
    counts

(* [finish] reads its quantiles out of the one latency record in place:
   the record keeps its completion order and contents, the overall
   quantiles equal sorting a copy, and the call allocates nothing
   proportional to the sample (it used to split it into two arrays and
   read each sample through a boxed [Float_vec.get]). *)
let test_finish_reads_record_in_place () =
  let dataset = Workload.Dataset.create mini_spec in
  let gen = Workload.Generator.create dataset in
  let eng = Engine.create mini_cfg gen ~offered_mops:2.0 in
  Engine.start eng (Design.make Design.minos);
  Dsim.Sim.run (Engine.sim eng) ~until:mini_cfg.Config.duration_us;
  let raw = Engine.raw_latencies eng in
  let before = Stats.Float_vec.to_array raw in
  let n = Array.length before in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let m = Engine.finish eng in
  let allocated = words () -. w0 in
  if allocated > float_of_int n /. 4.0 then
    Alcotest.failf "finish allocated %.0f words over %d samples" allocated n;
  check bool "record unchanged" true (before = Stats.Float_vec.to_array raw);
  let sorted = Array.copy before in
  Stats.Quantile.sort_floats sorted;
  List.iter
    (fun (name, q, got) ->
      check (Alcotest.float 0.0) name (Stats.Quantile.of_sorted sorted q) got)
    [ ("p50", 0.5, m.Metrics.p50_us); ("p99", 0.99, m.Metrics.p99_us);
      ("p999", 0.999, m.Metrics.p999_us) ]

(* A caller-fed engine on a shared simulator: every submitted request
   reports exactly one fate under its tag; a queued request cancelled
   before it reaches a core retires unserved (the probe never sees it),
   one cancelled mid-service has its reply suppressed, and the request
   ledger telescopes with the cancelled leg. *)
(* RX steering, observed on every executed request of a whole run: a GET
   draws its RX queue uniformly from the engine's dispatch RNG, a PUT goes
   to its key's partition mod cores, and under EREW a GET does too.  SHO
   sprays every request uniformly over its handoff cores instead. *)
let test_rx_steering () =
  let dataset = Workload.Dataset.create mini_spec in
  (* Pearson's chi-squared statistic of [counts] against uniform. *)
  let chi2 counts =
    let n = float_of_int (Array.fold_left ( + ) 0 counts) in
    let e = n /. float_of_int (Array.length counts) in
    Array.fold_left (fun acc c -> acc +. (((float_of_int c -. e) ** 2.0) /. e)) 0.0 counts
  in
  (* 0.999 quantiles of chi-squared by degrees of freedom. *)
  let chi2_bound df =
    match df with
    | 1 -> 10.83
    | 2 -> 13.82
    | 7 -> 24.32
    | _ -> Alcotest.failf "no chi-squared bound for %d degrees of freedom" df
  in
  let steer ?(cfg = mini_cfg) name design =
    let gen = Workload.Generator.create dataset in
    let eng = Engine.create cfg gen ~offered_mops:2.0 in
    let cores = Engine.cores eng in
    let sho = Design.equal design Design.sho in
    let spray = if sho then cfg.Config.handoff_cores else cores in
    let gets = Array.make spray 0 and puts = ref 0 and misplaced = ref 0 in
    Engine.set_probe eng (fun ~core:_ req ->
        let q = req.Engine.rx_queue in
        let home = Workload.Dataset.key_partition dataset req.Engine.key_id mod cores in
        match req.Engine.op with
        | Cost_model.Put ->
            incr puts;
            if (not sho) && q <> home then incr misplaced;
            if sho && q >= spray then incr misplaced
        | Cost_model.Get | Cost_model.Scan ->
            if cfg.Config.hkh_erew then begin
              if q <> home then incr misplaced
            end
            else if q >= spray then incr misplaced
            else gets.(q) <- gets.(q) + 1);
    ignore (Engine.run eng (Design.make design) : Metrics.t);
    check bool (name ^ ": PUTs seen") true (!puts > 1_000);
    check int (name ^ ": requests off their steered queue") 0 !misplaced;
    if (not cfg.Config.hkh_erew) && spray > 1 then begin
      Array.iteri
        (fun q c -> if c = 0 then Alcotest.failf "%s: no GET on RX queue %d" name q)
        gets;
      let x = chi2 gets and bound = chi2_bound (spray - 1) in
      if x > bound then
        Alcotest.failf "%s: GET queues chi2 %.2f above %.2f (counts %s)" name x bound
          (String.concat " " (Array.to_list (Array.map string_of_int gets)))
    end
  in
  List.iter (fun d -> steer (Design.name d) d) Minos.Experiment.all_designs;
  steer ~cfg:{ mini_cfg with Config.handoff_cores = 3 } "sho, 3 handoff cores" Design.sho;
  steer ~cfg:{ mini_cfg with Config.hkh_erew = true } "hkh_erew" Design.hkh

let test_caller_fed_cancel () =
  let dataset = Workload.Dataset.create mini_spec in
  let sim = Dsim.Sim.create ~seed:5 () in
  let eng = Engine.attach sim mini_cfg dataset in
  Engine.start eng (Design.make Design.hkh);
  let n = 200 in
  let fates = Array.make n None in
  let started = Array.make n false in
  let slots = Array.make n (-1) in
  Engine.set_retire eng (fun tag fate ->
      check bool "one fate per request" true (fates.(tag) = None);
      fates.(tag) <- Some fate);
  Engine.set_probe eng (fun ~core:_ req ->
      let tag = Engine.tag eng req in
      started.(tag) <- true;
      (* cancel the first request while it is in service *)
      if tag = 0 then Engine.cancel eng slots.(0));
  for i = 0 to n - 1 do
    slots.(i) <-
      Engine.submit eng ~tag:i Cost_model.Get ~key_id:i
        ~item_size:(Workload.Dataset.size_of_key dataset i) ~is_large:false ~scan_len:0
  done;
  (* the burst queues up behind the cores: withdraw the last ten *)
  for i = n - 10 to n - 1 do
    Engine.cancel eng slots.(i)
  done;
  Dsim.Sim.run sim ~until:mini_cfg.Config.duration_us;
  let m = Engine.finish eng in
  check int "every request submitted is issued" n m.Metrics.issued;
  check int "cancelled leg" 11 m.Metrics.cancelled;
  check Alcotest.(result unit string) "telescopes" (Ok ()) (Obs.Ledger.check (Metrics.ledger m));
  check bool "in-service cancel: started, reply suppressed" true
    (started.(0) && fates.(0) = Some Engine.Cancelled);
  for i = n - 10 to n - 1 do
    check bool "queued cancel: never started" false started.(i);
    check bool "queued cancel: retired cancelled" true (fates.(i) = Some Engine.Cancelled)
  done;
  for i = 1 to n - 11 do
    check bool "the rest are served" true (fates.(i) = Some Engine.Served)
  done;
  check bool "an engine with its own arrivals refuses submit" true
    (let gen = Workload.Generator.create dataset in
     let own = Engine.create mini_cfg gen ~offered_mops:1.0 in
     match
       Engine.submit own ~tag:0 Cost_model.Get ~key_id:0 ~item_size:1 ~is_large:false
         ~scan_len:0
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_size_aware_execution_invariant () =
  (* THE invariant, observed directly: once the control loop is running,
     requests above the live threshold execute on large cores and requests
     below it on small cores.  Legitimate exceptions exist (cold start,
     role-change leftovers, standby transitions), so we demand >= 99.5 %
     compliance after warm-up rather than 100 %. *)
  let dataset = Workload.Dataset.create mini_spec in
  let gen = Workload.Generator.create dataset in
  let eng = Engine.create mini_cfg gen ~offered_mops:3.0 in
  let design = ref None in
  let checked = ref 0 and violations = ref 0 in
  Engine.set_probe eng (fun ~core req ->
      match !design with
      | None -> ()
      | Some (d : Engine.design) ->
          let threshold = d.Engine.current_threshold () in
          let n_large = d.Engine.large_core_count () in
          if
            Engine.now eng > mini_cfg.Config.warmup_us
            && (not (Float.is_nan threshold))
            && threshold < infinity && n_large > 0
          then begin
            incr checked;
            let n_small = Engine.cores eng - n_large in
            let is_large_req = float_of_int req.Engine.item_size > threshold in
            let on_large_core = core >= n_small in
            if is_large_req <> on_large_core then incr violations
          end);
  let m =
    Engine.run eng (fun e ->
        let d = (Design.make Design.minos) e in
        design := Some d;
        d)
  in
  check bool "ran" true (m.Metrics.completed > 0);
  check bool "probe saw traffic" true (!checked > 100_000);
  let rate = float_of_int !violations /. float_of_int (max 1 !checked) in
  if rate > 0.005 then
    Alcotest.failf "size-aware invariant violated for %.2f%% of executions (%d/%d)"
      (100.0 *. rate) !violations !checked

let test_standby_acts_as_large_core () =
  (* Regression: at pL = 0.0625% the cost share of large requests rounds
     to zero large cores (standby mode), yet large traffic is steady.  The
     engaged standby core must behave as a true large core — other cores
     drain its RX queue — or every batch it pulls suffers HoL and the p99
     collapses to baseline levels. *)
  let spec = { mini_spec with Workload.Spec.p_large = 0.0625 } in
  let dataset = Workload.Dataset.create spec in
  let gen = Workload.Generator.create dataset in
  let eng = Engine.create mini_cfg gen ~offered_mops:4.5 in
  let m = Engine.run eng (Design.make Design.minos) in
  check bool "stable" true m.Metrics.stable;
  check int "engaged standby reported as one large core" 1 m.Metrics.final_large_cores;
  if m.Metrics.p99_us > 40.0 then
    Alcotest.failf "p99 %.1f: standby head-of-line blocking is back" m.Metrics.p99_us

let test_latency_breakdown () =
  (* Stage means must compose into the end-to-end mean (minus the constant
     pipeline latency), and head-of-line blocking must show up in HKH's
     queue-wait stage specifically. *)
  let minos = run_design ~offered:4.0 (Design.make Design.minos) in
  let hkh = run_design ~offered:4.0 (Design.make Design.hkh) in
  List.iter
    (fun (m : Metrics.t) ->
      check bool "waits nonnegative" true
        (m.Metrics.mean_queue_wait_us >= 0.0 && m.Metrics.mean_tx_wait_us >= 0.0);
      check bool "service in calibrated band" true
        (m.Metrics.mean_service_us > 0.5 && m.Metrics.mean_service_us < 5.0);
      let stages =
        m.Metrics.mean_queue_wait_us +. m.Metrics.mean_service_us
        +. m.Metrics.mean_tx_wait_us
        +. Cost_model.default.Cost_model.pipeline_latency_us
      in
      (* Sampling drops some TX stages and the stage windows differ
         slightly from the latency window, so allow a loose band. *)
      if stages < 0.5 *. m.Metrics.mean_us || stages > 2.0 *. m.Metrics.mean_us then
        Alcotest.failf "%s stages %.1f vs mean %.1f" m.Metrics.design stages
          m.Metrics.mean_us)
    [ minos; hkh ];
  check bool "HoL lives in the queue-wait stage" true
    (hkh.Metrics.mean_queue_wait_us > 5.0 *. minos.Metrics.mean_queue_wait_us)

let test_engine_with_real_store () =
  (* Route simulated ops through a real Kvstore.Store. *)
  let spec = { mini_spec with Workload.Spec.n_keys = 2_000; n_large_keys = 8 } in
  let dataset = Workload.Dataset.create spec in
  let store = Kvstore.Store.create ~partition_bits:3 ~bucket_bits:8
      ~value_arena_bytes:(1 lsl 22) ()
  in
  for id = 0 to Workload.Dataset.n_keys dataset - 1 do
    (* Store a marker value; sizes live in the dataset. *)
    Kvstore.Store.put store ~guard:`Lock (Workload.Dataset.key_name id)
      (Bytes.create 8)
  done;
  let gen = Workload.Generator.create dataset in
  let cfg = { mini_cfg with Config.duration_us = 20_000.0; warmup_us = 5_000.0 } in
  let eng = Engine.create ~store cfg gen ~offered_mops:1.0 in
  let m = Engine.run eng (Design.make Design.minos) in
  check bool "ran" true (m.Metrics.completed > 0);
  check bool "store intact" true ((Kvstore.Store.stats store).Kvstore.Store.items = 2_000)

let test_windowed_series () =
  let cfg = { mini_cfg with Config.window_us = Some 10_000.0 } in
  let m = run_design ~cfg (Design.make Design.hkh) in
  check bool "has windows" true (List.length m.Metrics.p99_series >= 3);
  List.iter (fun (_, p99) -> if p99 <= 0.0 then Alcotest.fail "bad window p99")
    m.Metrics.p99_series

let () =
  Alcotest.run "kvserver"
    [
      ( "cost_model",
        [
          Alcotest.test_case "reply sizes" `Quick test_reply_sizes;
          Alcotest.test_case "request sizes" `Quick test_request_sizes;
          Alcotest.test_case "frames" `Quick test_frames;
          Alcotest.test_case "cpu monotone" `Quick test_cpu_monotone_in_size;
          Alcotest.test_case "cost fn" `Quick test_cost_fn;
        ] );
      ("config", [ Alcotest.test_case "validate" `Quick test_config_validate ]);
      ( "control",
        [
          Alcotest.test_case "initial" `Quick test_control_initial;
          Alcotest.test_case "empty hist" `Quick test_control_empty_hist_is_initial;
          Alcotest.test_case "threshold is p99" `Quick test_control_threshold_is_p99;
          Alcotest.test_case "default: 1 large core" `Quick
            test_control_default_allocates_one_large;
          Alcotest.test_case "heavy large: more cores" `Quick
            test_control_heavy_large_allocates_more;
          Alcotest.test_case "standby when all small" `Quick
            test_control_all_small_when_no_large;
          Alcotest.test_case "ranges contiguous" `Quick
            test_control_ranges_cover_and_are_ordered;
          Alcotest.test_case "route" `Quick test_control_route;
          Alcotest.test_case "static override" `Quick test_control_static_threshold_override;
          Alcotest.test_case "extra large core" `Quick test_control_extra_large_core;
          Alcotest.test_case "shed boundaries" `Quick test_control_shed_boundaries;
          Alcotest.test_case "fair share" `Quick test_control_fair_share;
          Alcotest.test_case "epoch: empty merge" `Quick test_epoch_empty_merge;
          Alcotest.test_case "epoch: stale tick discards" `Quick test_epoch_stale_discards;
          Alcotest.test_case "epoch: static before first hist" `Quick
            test_epoch_static_before_first_hist;
          Alcotest.test_case "epoch: NaN unclamped passes" `Quick
            test_epoch_nan_unclamped_passes;
          Alcotest.test_case "epoch: NaN clamped falls back" `Quick
            test_epoch_nan_clamped_falls_back;
          Alcotest.test_case "epoch: last good only sane" `Quick
            test_epoch_last_good_only_sane;
        ]
        @ qsuite [ prop_route_total; prop_ranges_balance_cost ] );
      ( "engine",
        [
          Alcotest.test_case "conservation" `Slow test_engine_conservation;
          Alcotest.test_case "finish reads the record in place" `Quick
            test_finish_reads_record_in_place;
          Alcotest.test_case "throughput tracks offered" `Slow
            test_engine_throughput_tracks_offered;
          Alcotest.test_case "latencies sane" `Quick test_engine_latencies_sane;
          Alcotest.test_case "windowed series" `Quick test_windowed_series;
          Alcotest.test_case "real store integration" `Quick test_engine_with_real_store;
          Alcotest.test_case "no epoch during run" `Quick test_minos_no_epoch_during_run;
          Alcotest.test_case "minimal core count" `Quick test_minimal_core_count;
          Alcotest.test_case "batch size one" `Quick test_batch_size_one;
          Alcotest.test_case "aggressive sampling" `Quick test_aggressive_sampling;
          Alcotest.test_case "put master spread" `Quick test_put_master_spread;
          Alcotest.test_case "RX steering" `Slow test_rx_steering;
          Alcotest.test_case "latency breakdown" `Slow test_latency_breakdown;
          Alcotest.test_case "standby acts as large core" `Slow
            test_standby_acts_as_large_core;
          Alcotest.test_case "size-aware execution invariant" `Slow
            test_size_aware_execution_invariant;
          Alcotest.test_case "caller-fed submit and cancel" `Quick test_caller_fed_cancel;
        ] );
      ( "designs",
        [
          Alcotest.test_case "minos forms plan" `Quick test_minos_forms_plan;
          Alcotest.test_case "minos isolates smalls" `Slow test_minos_isolates_small_requests;
          Alcotest.test_case "minos op split" `Quick test_minos_small_large_split_visible_in_ops;
          Alcotest.test_case "minos standby" `Quick test_minos_standby_when_no_larges;
          Alcotest.test_case "minos static threshold" `Quick test_minos_static_threshold;
          Alcotest.test_case "minos rx-steal variant" `Quick
            test_minos_large_rx_steal_variant;
          Alcotest.test_case "sampling" `Quick test_sampling_reduces_nic_load;
          Alcotest.test_case "sho handoff bottleneck" `Slow test_sho_handoff_bottleneck;
          Alcotest.test_case "dynamic adaptation" `Slow test_dynamic_adapts_large_cores;
        ] );
    ]
