(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's per-experiment index) plus ablations and Bechamel
   microbenchmarks of the hot data structures.

   Usage:
     dune exec bench/main.exe                 # everything, full scale
     dune exec bench/main.exe -- fig3 fig10   # selected targets
     QUICK=1 dune exec bench/main.exe         # reduced scale (CI-sized)
*)

let quick =
  match Sys.getenv_opt "QUICK" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let scale = if quick then Minos.Experiment.quick_scale else Minos.Experiment.full_scale

let fig2_requests = if quick then 60_000 else 300_000

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the core data structures. *)

let micro_tests () =
  let open Bechamel in
  (* KV store pre-populated with 10k keys.  Key names are materialized up
     front: the staged closures must time store operations, not
     [Printf.sprintf] (format interpretation used to dominate them). *)
  let micro_keys = Array.init 10_000 (Printf.sprintf "key-%d") in
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:10
      ~value_arena_bytes:(1 lsl 24) ()
  in
  Array.iter
    (fun key -> Kvstore.Store.put store ~guard:`Lock key (Bytes.create 64))
    micro_keys;
  let get_i = ref 0 in
  let kv_get =
    Test.make ~name:"kvstore.get(64B)"
      (Staged.stage (fun () ->
           get_i := (!get_i + 1) land 0x1FFF;
           ignore (Kvstore.Store.get store micro_keys.(!get_i))))
  in
  let put_value = Bytes.create 64 in
  let put_i = ref 0 in
  let kv_put =
    Test.make ~name:"kvstore.put(64B)"
      (Staged.stage (fun () ->
           put_i := (!put_i + 1) land 0x1FFF;
           Kvstore.Store.put store ~guard:`Lock micro_keys.(!put_i) put_value))
  in
  let ring = Netsim.Ring.create ~capacity:1024 in
  let ring_cycle =
    Test.make ~name:"ring.push+pop"
      (Staged.stage (fun () ->
           ignore (Netsim.Ring.try_push ring 42);
           ignore (Netsim.Ring.try_pop ring)))
  in
  let heap = Dsim.Heap.create ~dummy:() () in
  let heap_seq = ref 0 in
  let heap_cycle =
    Test.make ~name:"heap.add+pop"
      (Staged.stage (fun () ->
           incr heap_seq;
           Dsim.Heap.add heap ~time:(float_of_int (!heap_seq land 0xFF)) ~seq:!heap_seq ();
           ignore (Dsim.Heap.pop_min heap)))
  in
  let wheel = Dsim.Wheel.create ~dummy:() () in
  let wheel_seq = ref 0 in
  let wheel_cycle =
    Test.make ~name:"wheel.add+pop"
      (Staged.stage (fun () ->
           incr wheel_seq;
           Dsim.Wheel.add wheel
             ~time:(float_of_int (!wheel_seq land 0xFF))
             ~seq:!wheel_seq ();
           ignore (Dsim.Wheel.pop wheel)))
  in
  let toeplitz =
    Test.make ~name:"toeplitz.hash_ipv4"
      (Staged.stage (fun () ->
           ignore
             (Netsim.Toeplitz.hash_ipv4 ~src_ip:0x0A000001l ~dst_ip:0x0A000002l
                ~src_port:12345 ~dst_port:11211 ())))
  in
  let zipf = Dsim.Dist.Zipf.create ~n:1_000_000 ~theta:0.99 in
  let zipf_rng = Dsim.Rng.create 1 in
  let zipf_sample =
    Test.make ~name:"zipf.sample(1M keys)"
      (Staged.stage (fun () -> ignore (Dsim.Dist.Zipf.sample zipf zipf_rng)))
  in
  let hist = Kvserver.Control.size_histogram () in
  let hist_rng = Dsim.Rng.create 2 in
  let hist_record =
    Test.make ~name:"log_histogram.record"
      (Staged.stage (fun () ->
           Stats.Log_histogram.record hist
             (float_of_int (1 + Dsim.Rng.int hist_rng 500_000))))
  in
  let slab = Kvstore.Slab.create ~capacity:(1 lsl 24) in
  let slab_cycle =
    Test.make ~name:"slab.alloc+free(100B)"
      (Staged.stage (fun () ->
           let r = Kvstore.Slab.alloc slab 100 in
           Kvstore.Slab.free slab r))
  in
  let req =
    {
      Proto.Wire.id = 42L;
      op = Proto.Wire.Get;
      key = "some-key";
      value = None;
      client_ts = 123456L;
      target_rx = 3;
    }
  in
  let encode =
    Test.make ~name:"wire.encode_request(get)"
      (Staged.stage (fun () -> ignore (Proto.Wire.encode_request req)))
  in
  let encoded = Proto.Wire.encode_request req in
  let decode =
    Test.make ~name:"wire.decode_request(get)"
      (Staged.stage (fun () -> ignore (Proto.Wire.decode_request encoded)))
  in
  let big = Bytes.create 100_000 in
  let fragment =
    Test.make ~name:"fragment.split(100KB)"
      (Staged.stage (fun () -> ignore (Proto.Fragment.split ~msg_id:1L big)))
  in
  [
    kv_get; kv_put; ring_cycle; heap_cycle; wheel_cycle; toeplitz; zipf_sample; hist_record;
    slab_cycle; encode; decode; fragment;
  ]

let run_micro () =
  let open Bechamel in
  Minos.Report.section "Microbenchmarks (Bechamel, ns per call)";
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.2 else 0.5))
      ~kde:None ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let grouped = Test.make_grouped ~name:"micro" (micro_tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> Printf.sprintf "%.1f" x
          | Some [] | None -> "-"
        in
        [ name; ns ] :: acc)
      results []
    |> List.sort compare
  in
  Minos.Report.table ~title:"hot-path operations" ~headers:[ "operation"; "ns/call" ]
    rows

(* ------------------------------------------------------------------ *)
(* Hot-path performance profile: heap ns per add+pop, simulator
   events/sec and minor words allocated per simulated request, plus the
   wall-clock of one figure sweep.  Written to BENCH_perf.json so runs can
   be compared across commits; [perf_gate] fails the run when one of the
   first three leaves its bound. *)

let perf_heap_ns () =
  let heap = Dsim.Heap.create ~dummy:() () in
  for i = 1 to 64 do
    Dsim.Heap.add heap ~time:(float_of_int i) ~seq:i ()
  done;
  for _ = 1 to 64 do
    ignore (Dsim.Heap.pop heap)
  done;
  let iters = 2_000_000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    Dsim.Heap.add heap ~time:(float_of_int (i land 0xFF)) ~seq:i ();
    ignore (Dsim.Heap.pop heap)
  done;
  1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int iters

(* Same cycle through the timing wheel (the queue the simulator actually
   uses since the wheel kernel landed). *)
let perf_wheel_ns () =
  let wheel = Dsim.Wheel.create ~dummy:() () in
  for i = 1 to 64 do
    Dsim.Wheel.add wheel ~time:(float_of_int i) ~seq:i ()
  done;
  for _ = 1 to 64 do
    Dsim.Wheel.drop wheel
  done;
  let iters = 2_000_000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    Dsim.Wheel.add wheel ~time:(float_of_int (i land 0xFF)) ~seq:i ();
    Dsim.Wheel.drop wheel
  done;
  1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int iters

(* One Minos run at a fixed 4 Mops on the default workload, instrumented
   for allocation rate and event throughput; [obs] attaches a flight
   recorder (the recorder-overhead comparison). *)
let perf_sim ?obs () =
  let cfg = Minos.Experiment.config_of_scale scale in
  let spec = Workload.Spec.default in
  let dataset = Minos.Experiment.dataset_for spec in
  let gen =
    Workload.Generator.create ~seed:101 ~p_large:spec.Workload.Spec.p_large
      ~get_ratio:spec.Workload.Spec.get_ratio dataset
  in
  let eng = Kvserver.Engine.create ?obs cfg gen ~offered_mops:4.0 in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let m = Kvserver.Engine.run eng (Minos.Experiment.maker Kvserver.Design.minos) in
  let dt = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. minor0 in
  let events = Dsim.Sim.events_processed (Kvserver.Engine.sim eng) in
  let issued = m.Kvserver.Metrics.issued in
  ( float_of_int events /. dt,
    minor /. float_of_int (max 1 issued),
    events, issued )

(* Exit non-zero when a run's headline claims fail (the [check] of each
   driver); the written JSON stays for inspection. *)
let enforce target = function
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "%s check FAILED: %s\n%!" target msg;
      exit 1

(* Write a target's run record to BENCH_<target>.json, then gate on its
   check.  [noun] keeps each target's historical stdout line. *)
let record ?noun target json verdict =
  let file = "BENCH_" ^ target ^ ".json" in
  Obs.Json.to_file file json;
  Printf.printf "[%s results written to %s]\n%!" (Option.value noun ~default:target) file;
  enforce target verdict

(* ------------------------------------------------------------------ *)
(* Flight-recorder overhead: the fixed-load [perf_sim] run, once without
   an instrument and once fully sampled.  Written to BENCH_obs.json.  The
   gate is deterministic (the sim is seeded, so allocation counts are
   exact): recording may cost at most 2 minor words/request over the
   same run without a recorder. *)

let run_obs () =
  Minos.Report.section "Flight-recorder overhead (recorder off vs on)";
  let cfg = Minos.Experiment.config_of_scale scale in
  let ev_off, w_off, _, _ = perf_sim () in
  let obs =
    Obs.Instrument.create ~spans:65536 ~cores:cfg.Kvserver.Config.cores ~seed:1 ()
  in
  let ev_on, w_on, _, _ = perf_sim ~obs () in
  let recorded = Obs.Recorder.recorded obs.Obs.Instrument.recorder in
  Minos.Report.table ~title:"recorder cost"
    ~headers:[ "metric"; "obs off"; "obs on"; "delta" ]
    [
      [
        "dsim events/sec";
        Printf.sprintf "%.0f" ev_off;
        Printf.sprintf "%.0f" ev_on;
        Printf.sprintf "%+.1f%%" (100.0 *. ((ev_on /. ev_off) -. 1.0));
      ];
      [
        "minor words/request";
        Printf.sprintf "%.2f" w_off;
        Printf.sprintf "%.2f" w_on;
        Printf.sprintf "%+.2f" (w_on -. w_off);
      ];
    ];
  Minos.Report.note "%d spans recorded while on" recorded;
  record ~noun:"recorder overhead" "obs"
    Obs.Json.(
      Obj
        [
          ("quick", Bool quick);
          ("events_per_sec_off", Float ev_off);
          ("events_per_sec_on", Float ev_on);
          ("minor_words_per_request_off", Float w_off);
          ("minor_words_per_request_on", Float w_on);
          ("spans_recorded", Int recorded);
        ])
    (Minos.Report.verdict
       [
         ( w_on -. w_off <= 2.0,
           Printf.sprintf "recording costs %+.2f minor words/request (gate: 2)" (w_on -. w_off) );
       ])

(* ------------------------------------------------------------------ *)
(* Closed-form capacity model: the numbers that explain where each curve
   saturates. *)

let run_capacity () =
  Minos.Report.section "Capacity model (closed form, see Queueing.Capacity)";
  let cost = Kvserver.Cost_model.default in
  let rows =
    List.map
      (fun (label, spec) ->
        let p = Queueing.Capacity.profile spec cost in
        [
          label;
          Printf.sprintf "%.2f" p.Queueing.Capacity.mean_cpu_us;
          Printf.sprintf "%.0f" p.Queueing.Capacity.mean_tx_bytes;
          Printf.sprintf "%.1f" p.Queueing.Capacity.mean_service_latency_us;
          Printf.sprintf "%.2f" (Queueing.Capacity.nic_bound_mops spec cost ~gbps:40.0);
          Printf.sprintf "%.2f" (Queueing.Capacity.cpu_bound_mops spec cost ~cores:8 ());
          string_of_int
            (Queueing.Capacity.expected_large_cores spec cost ~cores:8 ~percentile:0.99);
        ])
      [
        ("default (95:5)", Workload.Spec.default);
        ("write-intensive", Workload.Spec.write_intensive);
        ("pL=0.75", Workload.Spec.with_p_large Workload.Spec.default 0.75);
        ("sL=1MB", Workload.Spec.with_s_large Workload.Spec.default 1_000_000);
      ]
  in
  Minos.Report.table ~title:"per-workload bounds"
    ~headers:
      [ "workload"; "cpu us/op"; "tx B/op"; "svc lat us"; "NIC Mops"; "CPU Mops";
        "large cores" ]
    rows;
  Minos.Report.note "HoL exposure (HKH, default, 1 Mops): %.1f%% of arrivals land behind a large request"
    (100.0
    *. Queueing.Capacity.hol_exposure Workload.Spec.default cost ~cores:8
         ~offered_mops:1.0)

let run_numa () =
  Minos.Report.section "Multi-NUMA scaling (independent per-domain instances, §3)";
  let cfg = Minos.Experiment.config_of_scale scale in
  let rows =
    List.map
      (fun domains ->
        let r =
          Minos.Numa.run ~cfg ~domains Workload.Spec.default
            ~offered_mops:(3.0 *. float_of_int domains)
        in
        [
          string_of_int domains;
          Printf.sprintf "%.2f" r.Minos.Numa.total_throughput_mops;
          Minos.Report.f1 r.Minos.Numa.p50_us;
          Minos.Report.f1 r.Minos.Numa.p99_us;
          (if r.Minos.Numa.stable then "yes" else "no");
        ])
      [ 1; 2; 4 ]
  in
  Minos.Report.table ~title:"Minos at 3 Mops per domain"
    ~headers:[ "domains"; "tput Mops"; "p50 us"; "p99 us"; "stable" ]
    rows

(* ------------------------------------------------------------------ *)
(* The perf-smoke gate.  Two deterministic bounds (the sim is seeded, so
   allocation and event counts are exact) plus a wide absolute throughput
   floor that catches order-of-magnitude collapses without flaking on
   runner hardware. *)
let perf_gate ~words_per_req ~events ~issued ~events_per_sec =
  let ev_per_req = float_of_int events /. float_of_int (max 1 issued) in
  Printf.printf
    "perf gate: %.1f words/request (<= 80), %.2f events/request (<= 4.5), %.0f events/sec (>= 1M)\n%!"
    words_per_req ev_per_req events_per_sec;
  Minos.Report.verdict
    [
      (words_per_req <= 80.0, Printf.sprintf "%.1f minor words/request (gate: 80)" words_per_req);
      ( ev_per_req <= 4.5,
        Printf.sprintf "%.2f events/request (gate: 4.5) — extra per-request events crept in"
          ev_per_req );
      (events_per_sec >= 1e6, Printf.sprintf "%.0f dsim events/sec (floor: 1M)" events_per_sec);
    ]

(* Chaos harness: every canned fault plan against the guarded Minos, the
   plain Minos and HKH+WS.  [Minos.Chaos.check] gates the run: for the
   core-stall and loss plans the guarded p99 must beat the unguarded one,
   and the overload plan must shed while staying stable.  CI also checks
   that a rerun at the same seed is byte-identical. *)

let run_chaos () =
  let cfg = Minos.Experiment.config_of_scale scale in
  let t = Minos.Chaos.run ~cfg ~seed:1 () in
  Minos.Chaos.print t;
  record "chaos" (Minos.Chaos.to_json t) (Minos.Chaos.check t)

(* Cluster scale-out: 4 shard servers behind the client-side router,
   size-aware Minos vs the keyhash baseline at the same offered load.
   [Minos.Cluster.check] gates the run: multi-GET p99 must grow with the
   fan-out degree, per-server Minos p99 must stay strictly below the
   keyhash baseline's and cluster loss accounting must telescope
   exactly.  A rerun at the same seed (any MINOS_JOBS) is
   byte-identical. *)

let run_cluster () =
  let cfg = Minos.Experiment.config_of_scale scale in
  let t =
    Minos.Cluster.run ~cfg ~seed:1 ~servers:4 Workload.Spec.default
      ~offered_mops:8.0
  in
  Minos.Cluster.print t;
  record "cluster" (Minos.Cluster.to_json t) (Minos.Cluster.check t)

(* Elastic resharding: the add-remove plan (a server joins mid-run, then
   server 1 drains out) against a 4-shard cluster at 8 Mops, size-aware
   Minos vs the keyhash baseline over the same routing table.
   [Minos.Reshard.check] gates the run: loss accounting must telescope
   exactly across the reshard events, the key-conservation audit must
   report zero lost/duplicated/stale keys and the p99 during migration
   must stay within 3x of steady state.  A rerun at the same seed (any
   MINOS_JOBS) is byte-identical. *)

let run_reshard () =
  let cfg =
    {
      (Minos.Experiment.config_of_scale scale) with
      Kvserver.Config.window_us = Some scale.Minos.Experiment.window_us;
    }
  in
  let plan =
    Option.get
      (Shardmgr.Plan.canned "add-remove"
         ~warmup_us:cfg.Kvserver.Config.warmup_us
         ~duration_us:cfg.Kvserver.Config.duration_us)
  in
  let t =
    Minos.Reshard.run ~cfg ~seed:1 ~servers:4 ~plan Workload.Spec.default
      ~offered_mops:8.0 ()
  in
  Minos.Reshard.print t;
  record "reshard" (Minos.Reshard.to_json t) (Minos.Reshard.check t)

(* Scenario suite: every registry scenario beyond the paper's static
   Poisson mix — diurnal ramps, bursts, TTL churn, scan-heavy, and the
   larger-than-memory cold tier — size-aware Minos vs the keyhash
   baseline.  [Minos.Scenarios.check] gates the run: the extended
   loss-accounting identity (with the expired-miss leg) must hold
   exactly in every row, size-aware p99 must beat keyhash on the
   scan-heavy scenario, cold-tier must miss and evict, and ttl-churn
   must expire keys.  CI also checks that a rerun at the same seed (any
   MINOS_JOBS) is byte-identical. *)

let run_scenarios () =
  let cfg = Minos.Experiment.config_of_scale scale in
  let t = Minos.Scenarios.run ~cfg ~seed:1 () in
  Minos.Scenarios.print t;
  record ~noun:"scenario" "scenarios" (Minos.Scenarios.to_json t) (Minos.Scenarios.check t)

(* Replica-aware tail-cutting: the hedged/tied/unhedged variant grid
   against a 4-shard, 1-mirror cluster of engines at 8 Mops, fault-free
   and under the canned kill-server plan.  [Minos.Hedge.check] gates the
   run: copy accounting and every engine ledger must telescope exactly
   in every variant, the key audit across the crash must be clean, the
   hedged size-aware p99 under the kill must stay within 3x of
   fault-free while the unhedged one degrades by at least 10x.  CI also
   checks that a rerun at the same seed (any MINOS_JOBS) is
   byte-identical. *)

let run_hedge () =
  let t =
    Minos.Hedge.run
      ~config:(Minos.Hedge.config_of_scale scale)
      ~seed:1 ~offered_mops:8.0 ()
  in
  Minos.Hedge.print t;
  record "hedge" (Minos.Hedge.to_json t) (Minos.Hedge.check t)

let targets : (string * string * (unit -> unit)) list =
  [
    ("fig1", "service time vs item size", fun () -> Minos.Figures.print_fig1 ());
    ( "fig2",
      "queueing models of size-unaware sharding",
      fun () -> Minos.Figures.print_fig2 ~requests:fig2_requests () );
    ("table1", "item size variability profiles", fun () -> Minos.Figures.print_table1 ());
    ( "fig3",
      "throughput vs 99p, default workload",
      fun () -> Minos.Figures.print_fig3 ~scale () );
    ("fig4", "99p of large requests", fun () -> Minos.Figures.print_fig4 ~scale ());
    ("fig5", "throughput vs 99p, 50:50", fun () -> Minos.Figures.print_fig5 ~scale ());
    ( "fig6",
      "max throughput under SLO vs pL",
      fun () -> Minos.Figures.print_fig6 ~scale () );
    ( "fig7",
      "max throughput under SLO vs sL",
      fun () -> Minos.Figures.print_fig7 ~scale () );
    ( "fig8",
      "network bandwidth scaling (sampling)",
      fun () -> Minos.Figures.print_fig8 ~scale () );
    ("fig9", "per-core load breakdown", fun () -> Minos.Figures.print_fig9 ~scale ());
    ("fig10", "dynamic workload", fun () -> Minos.Figures.print_fig10 ~scale ());
    ( "fanout",
      "tail-at-scale fan-out analysis",
      fun () -> Minos.Figures.print_fanout ~scale () );
    ( "ablation-threshold",
      "adaptive vs static threshold",
      fun () -> Minos.Figures.print_ablation_threshold ~scale () );
    ( "ablation-cost",
      "control-loop cost functions",
      fun () -> Minos.Figures.print_ablation_cost_fn ~scale () );
    ( "ablation-steal",
      "large-core RX stealing variant",
      fun () -> Minos.Figures.print_ablation_steal ~scale () );
    ( "ablation-epoch",
      "epoch length / smoothing sensitivity",
      fun () -> Minos.Figures.print_ablation_epoch ~scale () );
    ( "ablation-erew",
      "HKH CREW vs EREW dispatch under skew",
      fun () -> Minos.Figures.print_ablation_erew ~scale () );
    ("capacity", "closed-form capacity model", run_capacity);
    ("chaos", "fault plans vs hardened/plain designs", run_chaos);
    ("cluster", "multi-server sharding + fan-out multi-GET", run_cluster);
    ("reshard", "elastic resharding: live migration + replicas", run_reshard);
    ("hedge", "replica-aware tail-cutting vs kill-server chaos", run_hedge);
    ("scenarios", "scenario suite: arrivals/TTL/scans/cold-tier", run_scenarios);
    ("obs", "flight-recorder overhead on/off", run_obs);
    ("numa", "multi-NUMA-domain scaling", run_numa);
    ("micro", "bechamel microbenchmarks", run_micro);
  ]

let run_perf sweep_target =
  Minos.Report.section "Hot-path performance profile";
  let heap_ns = perf_heap_ns () in
  let wheel_ns = perf_wheel_ns () in
  let events_per_sec, words_per_req, events, issued = perf_sim () in
  let sweep_fn =
    match List.find_opt (fun (n, _, _) -> n = sweep_target) targets with
    | Some (_, _, f) -> f
    | None ->
        Printf.eprintf "perf: unknown sweep target %s\n" sweep_target;
        exit 1
  in
  let t0 = Unix.gettimeofday () in
  sweep_fn ();
  let sweep_s = Unix.gettimeofday () -. t0 in
  Minos.Report.table ~title:"perf summary" ~headers:[ "metric"; "value" ]
    [
      [ "heap add+pop ns/op"; Printf.sprintf "%.1f" heap_ns ];
      [ "wheel add+pop ns/op"; Printf.sprintf "%.1f" wheel_ns ];
      [ "dsim events/sec"; Printf.sprintf "%.0f" events_per_sec ];
      [ "minor words/request"; Printf.sprintf "%.1f" words_per_req ];
      [ sweep_target ^ " sweep seconds"; Printf.sprintf "%.2f" sweep_s ];
    ];
  Obs.Json.(
    to_file "BENCH_perf.json"
      (Obj
         [
           ("quick", Bool quick);
           ("jobs", Int (Minos.Par.jobs ()));
           ("heap_add_pop_ns", Float heap_ns);
           ("wheel_add_pop_ns", Float wheel_ns);
           ("dsim_events_per_sec", Float events_per_sec);
           ("minor_words_per_request", Float words_per_req);
           ("sim_events", Int events);
           ("sim_issued", Int issued);
           ("sweep_target", String sweep_target);
           ("sweep_seconds", Float sweep_s);
         ]));
  Printf.printf "[perf profile written to BENCH_perf.json]\n%!";
  enforce "perf" (perf_gate ~words_per_req ~events ~issued ~events_per_sec)

let usage () =
  print_endline "usage: bench/main.exe [target ...]   (default: all targets)";
  print_endline "       bench/main.exe perf [sweep-target]";
  print_endline
    "  perf measures heap ns/op, dsim events/sec, minor words/request and";
  print_endline
    "  the wall-clock of one sweep (default fig3); writes BENCH_perf.json, exits 1 past a gate.";
  print_endline "targets:";
  List.iter (fun (name, doc, _) -> Printf.printf "  %-20s %s\n" name doc) targets

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--help" ] | [ "-h" ] -> usage ()
  | "perf" :: rest ->
      let sweep_target = match rest with [] -> "fig3" | t :: _ -> t in
      run_perf sweep_target
  | [ "profsim" ] ->
      (* Undocumented: loop the perf_sim workload so a sampling profiler
         (gprofng, perf) sees only the simulator hot path. *)
      for _ = 1 to 5 do
        let ev, w, _, _ = perf_sim () in
        Printf.printf "events/sec %.0f  words/req %.1f\n%!" ev w
      done
  | [] ->
      Printf.printf "Minos benchmark harness (%s scale)\n"
        (if quick then "quick" else "full");
      List.iter
        (fun (name, _, f) ->
          let t0 = Unix.gettimeofday () in
          f ();
          Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t0))
        targets
  | names ->
      List.iter
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) targets with
          | Some (_, _, f) -> f ()
          | None ->
              Printf.eprintf "unknown target %s\n" name;
              usage ();
              exit 1)
        names
