(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's per-experiment index), the ablations and the gated
   runners, each through the library entry point [minos] uses, plus the
   bench-only targets: the hot-path perf profile and its gate (perf), the
   flight-recorder overhead gate (obs) and the closed-form capacity model
   (capacity).  A gated runner writes BENCH_<target>.json and exits 1
   when its headline claims fail.

   Usage:
     dune exec bench/main.exe                 # everything, full scale
     dune exec bench/main.exe -- fig3 fig10   # selected targets
     QUICK=1 dune exec bench/main.exe         # reduced scale (CI-sized)
*)

let quick =
  match Sys.getenv_opt "QUICK" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let scale = Minos.Experiment.scale_of ~quick

let bench_file target = "BENCH_" ^ target ^ ".json"

(* ------------------------------------------------------------------ *)
(* Hot-path performance profile: heap ns per add+pop, simulator
   events/sec, minor and major words allocated per simulated request, the
   dataset's heap words per key, its build's time and minor words per key,
   the native store's populate (arena bytes per value byte, wall ms, minor
   faults, huge pages), plus the wall-clock of one figure sweep.
   Written to BENCH_perf.json so runs can be compared across commits;
   [perf_gate] fails the run when one of them leaves its bound. *)

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

type sim_profile = {
  events_per_sec : float;
  minor_per_req : float;
  major_per_req : float;
      (* words allocated on or promoted to the major heap: the latency
         record and everything that outlives a minor collection *)
  events : int;
  issued : int;
}

(* The default dataset, built in order on this domain: not through the
   memo, whose build spawns the {!Minos.Par} pool.  Once a pool domain
   exists, even idle, the major GC's cycle ends (which empty every
   domain's minor heap) fall at times that vary from run to run, so this
   domain's major words/request stop repeating (0.0851-0.0860 over four
   runs, against 0.0844 in every single-domain run).  [run_perf] profiles
   before anything spawns the pool. *)
let profile_dataset = lazy (Workload.Dataset.create Workload.Spec.default)

(* One Minos run at a fixed 4 Mops on the default workload, instrumented
   for allocation rate and event throughput; [obs] attaches a flight
   recorder (the recorder-overhead comparison). *)
let perf_sim ?obs () =
  let cfg = Minos.Experiment.config_of_scale scale in
  let spec = Workload.Spec.default in
  let dataset = Lazy.force profile_dataset in
  let gen =
    Workload.Generator.create ~seed:101 ~p_large:spec.Workload.Spec.p_large
      ~get_ratio:spec.Workload.Spec.get_ratio dataset
  in
  let eng = Kvserver.Engine.create ?obs cfg gen ~offered_mops:4.0 in
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = Unix.gettimeofday () in
  let m = Kvserver.Engine.run eng (Minos.Experiment.maker Kvserver.Design.minos) in
  let dt = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. minor0 in
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  let events = Dsim.Sim.events_processed (Kvserver.Engine.sim eng) in
  let issued = m.Kvserver.Metrics.issued in
  let per_req w = w /. float_of_int (max 1 issued) in
  {
    events_per_sec = float_of_int events /. dt;
    minor_per_req = per_req minor;
    major_per_req = per_req major;
    events;
    issued;
  }

(* Heap words the default dataset holds per key: the simulator's only
   per-key state (a point adds per-request state, not per-key). *)
let dataset_words_per_key () =
  let d = Lazy.force profile_dataset in
  float_of_int (Obj.reachable_words (Obj.repr d))
  /. float_of_int (Workload.Dataset.n_keys d)

(* The default dataset's build, outside the memo: wall time of the whole
   build on the pool and of its zipf normalizer alone (the size draw is
   the difference), both from a collected heap as at a process start, and
   the minor words per key of a build whose tasks run in order on this
   domain.  [Gc.minor_words] counts the calling domain only, so only that
   build's count repeats exactly. *)
type build_profile = { build_ms : float; zeta_ms : float; build_words_per_key : float }

let perf_build () =
  let spec = Workload.Spec.default in
  let ms f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    1000.0 *. (Unix.gettimeofday () -. t0)
  in
  Gc.full_major ();
  let build_ms = ms (fun () -> Workload.Dataset.create ~run:Minos.Par.run spec) in
  let zeta_ms =
    ms (fun () ->
        Dsim.Dist.Zipf.create ~run:Minos.Par.run
          ~n:(spec.Workload.Spec.n_keys - spec.Workload.Spec.n_large_keys)
          ~theta:spec.Workload.Spec.zipf_theta ())
  in
  let minor0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Workload.Dataset.create spec));
  let words = Gc.minor_words () -. minor0 in
  {
    build_ms;
    zeta_ms;
    build_words_per_key = words /. float_of_int spec.Workload.Spec.n_keys;
  }

(* The native store populated with udp-read's dataset (100k keys of the
   paper's mix, 62 large, dataset seed 1, as the native benchmark draws
   it) into a default store, as its server does.  [store_ratio] is the
   arena's high-water mark over the values' bytes, item headers and keys
   included in the numerator; it repeats exactly at a fixed seed.  The
   populate's wall ms, its minor page faults and the process's
   AnonHugePages after it depend on the kernel's THP setting and free
   memory (the arena is advised for 2 MB pages), so they are reported and
   not gated; -1 where /proc cannot be read. *)
type populate_profile = {
  store_ratio : float;
  populate_ms : float;
  populate_minflt : int;
  anon_huge_kb : int;
}

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* Field 10 of /proc/self/stat, counted after the parenthesised command
   name, which may hold spaces. *)
let minor_faults () =
  match read_file "/proc/self/stat" with
  | None -> -1
  | Some s -> (
      let i = String.rindex s ')' + 2 in
      match List.nth_opt (String.split_on_char ' ' (String.sub s i (String.length s - i))) 7 with
      | Some f -> Option.value (int_of_string_opt f) ~default:(-1)
      | None -> -1)

let anon_huge_kb () =
  match read_file "/proc/self/smaps_rollup" with
  | None -> -1
  | Some s ->
      List.find_map
        (fun line -> Scanf.sscanf_opt line "AnonHugePages: %d kB" Fun.id)
        (String.split_on_char '\n' s)
      |> Option.value ~default:(-1)

let perf_populate () =
  let spec =
    {
      Workload.Spec.default with
      Workload.Spec.n_keys = 100_000;
      n_large_keys = 62;
      get_ratio = 1.0;
    }
  in
  let ds = Workload.Dataset.create ~seed:1 spec in
  let store = Kvstore.Store.create () in
  let minflt0 = minor_faults () and t0 = Unix.gettimeofday () in
  for id = 0 to Workload.Dataset.n_keys ds - 1 do
    Kvstore.Store.put store ~guard:`Lock (Workload.Dataset.key_name id)
      (Bytes.create (Workload.Dataset.size_of_key ds id))
  done;
  let populate_ms = 1000.0 *. (Unix.gettimeofday () -. t0) and minflt1 = minor_faults () in
  {
    store_ratio =
      float_of_int (Kvstore.Store.stats store).Kvstore.Store.arena_peak_bytes
      /. float_of_int (Workload.Dataset.total_value_bytes ds);
    populate_ms;
    populate_minflt = (if minflt0 < 0 || minflt1 < 0 then -1 else minflt1 - minflt0);
    anon_huge_kb = anon_huge_kb ();
  }

(* The native server's busy path: minor collections while a 2-worker UDP
   server answers 20,000 single-datagram GETs, pre-encoded and sent from
   raw sockets, eight in flight per queue (test_runtime's "busy GETs
   allocate nothing" asserts the same).  In OCaml 5 each one stops every
   domain.  The sending loop allocates nothing itself. *)
let udp_get_collections () =
  let store =
    Kvstore.Store.create ~partition_bits:2 ~bucket_bits:6 ~value_arena_bytes:(1 lsl 22) ()
  in
  let n_keys = 1000 and window = 8 and base_port = 47950 in
  for id = 0 to n_keys - 1 do
    Kvstore.Store.put store ~guard:`Lock (Workload.Dataset.key_name id)
      (Bytes.make (1 + (id * 7 mod 1000)) 'v')
  done;
  let config = { Runtime.Server.default_config with Runtime.Server.cores = 2 } in
  let udp = Runtime.Udp.start ~config ~base_port store in
  let socks =
    Array.init 2 (fun q ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
        Unix.setsockopt_float sock Unix.SO_RCVTIMEO 2.0;
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + q));
        sock)
  in
  let datagrams =
    Array.init n_keys (fun id ->
        List.hd
          (Proto.Fragment.split ~msg_id:(Int64.of_int id)
             (Proto.Wire.encode_request
                {
                  Proto.Wire.id = Int64.of_int id;
                  op = Proto.Wire.Get;
                  key = Workload.Dataset.key_name id;
                  value = None;
                  client_ts = 0L;
                  target_rx = 0;
                })))
  in
  let buf = Bytes.create 65536 in
  let run rounds =
    for r = 0 to rounds - 1 do
      for q = 0 to 1 do
        for k = 0 to window - 1 do
          let d = datagrams.((((r * window) + k) * 2 + q) mod n_keys) in
          ignore (Unix.send socks.(q) d 0 (Bytes.length d) [])
        done
      done;
      for q = 0 to 1 do
        for _ = 1 to window do
          ignore (Unix.recv socks.(q) buf 0 (Bytes.length buf) [])
        done
      done
    done
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Unix.close socks;
      Runtime.Udp.stop udp)
    (fun () ->
      run (2000 / (2 * window));
      let before = (Gc.quick_stat ()).Gc.minor_collections in
      run (20_000 / (2 * window));
      (Gc.quick_stat ()).Gc.minor_collections - before)

(* Exit non-zero when a run's headline claims fail (the [check] of each
   driver); the written JSON stays for inspection. *)
let enforce target = function
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "%s check FAILED: %s\n%!" target msg;
      exit 1

(* ------------------------------------------------------------------ *)
(* Flight-recorder overhead: the fixed-load [perf_sim] run, once without
   an instrument and once fully sampled.  Written to BENCH_obs.json.  The
   gate is deterministic (the sim is seeded, so allocation counts are
   exact): recording may cost at most 2 minor words/request over the
   same run without a recorder. *)

let run_obs () =
  Minos.Report.section "Flight-recorder overhead (recorder off vs on)";
  let cfg = Minos.Experiment.config_of_scale scale in
  let { events_per_sec = ev_off; minor_per_req = w_off; _ } = perf_sim () in
  let obs =
    Obs.Instrument.create ~spans:65536 ~cores:cfg.Kvserver.Config.cores ~seed:1 ()
  in
  let { events_per_sec = ev_on; minor_per_req = w_on; _ } = perf_sim ~obs () in
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
  Obs.Json.(
    to_file (bench_file "obs")
      (Obj
        [
          ("quick", Bool quick);
          ("events_per_sec_off", Float ev_off);
          ("events_per_sec_on", Float ev_on);
          ("minor_words_per_request_off", Float w_off);
          ("minor_words_per_request_on", Float w_on);
          ("spans_recorded", Int recorded);
        ]));
  Printf.printf "[recorder overhead results written to %s]\n%!" (bench_file "obs");
  enforce "obs"
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
          Printf.sprintf "%.2f" (Queueing.Capacity.cpu_bound_mops spec cost ~cores:8);
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

(* ------------------------------------------------------------------ *)
(* The perf-smoke gate.  Six deterministic bounds (the sim is seeded, so
   allocation and event counts are exact, and the dataset's size is fixed
   by its spec) plus a wide absolute throughput floor that catches
   order-of-magnitude collapses without flaking on runner hardware.  The
   major-words, both dataset and the store bounds sit at the values this
   code measures (each repeated exactly over three runs; the build's 481
   minor words over 1 M keys were 1,998,802 while each class draw boxed a
   float; the store's 1.0383 bytes/user byte were 1.131 with quarter-step
   size classes and 1.0402 with an 11-byte item header); only ever tighten
   them.  The native GET path's minor collections are a seventh bound, at
   the 0 it measures (8 while each GET allocated ~100 words). *)
let max_major_per_req = 0.085
let max_dataset_words_per_key = 0.252
let max_build_words_per_key = 0.0005
let max_store_bytes_per_user_byte = 1.0384
let max_udp_get_collections = 0

let perf_gate (p : sim_profile) ~dataset_words ~(build : build_profile) ~store_ratio
    ~udp_collections =
  let words_per_req = p.minor_per_req and events_per_sec = p.events_per_sec in
  let ev_per_req = float_of_int p.events /. float_of_int (max 1 p.issued) in
  Printf.printf
    "perf gate: %.1f words/request (<= 80), %.2f events/request (<= 4.5), %.0f events/sec (>= 1M), %.3f major words/request (<= %g), %.3f dataset words/key (<= %g), %.4f build minor words/key (<= %g), %.4f store bytes/user byte (<= %g), %d minor collections over 20k UDP GETs (<= %d)\n%!"
    words_per_req ev_per_req events_per_sec p.major_per_req max_major_per_req dataset_words
    max_dataset_words_per_key build.build_words_per_key max_build_words_per_key store_ratio
    max_store_bytes_per_user_byte udp_collections max_udp_get_collections;
  Minos.Report.verdict
    [
      ( udp_collections <= max_udp_get_collections,
        Printf.sprintf
          "%d minor collections over 20k single-datagram UDP GETs (gate: %d) — the native GET path allocates"
          udp_collections max_udp_get_collections );
      (words_per_req <= 80.0, Printf.sprintf "%.1f minor words/request (gate: 80)" words_per_req);
      ( p.major_per_req <= max_major_per_req,
        Printf.sprintf "%.3f major words/request (gate: %g) — the latency record grew"
          p.major_per_req max_major_per_req );
      ( dataset_words <= max_dataset_words_per_key,
        Printf.sprintf "%.3f dataset heap words/key (gate: %g) — per-key state crept in"
          dataset_words max_dataset_words_per_key );
      ( build.build_words_per_key <= max_build_words_per_key,
        Printf.sprintf "%.4f minor words/key building the dataset (gate: %g) — the build boxes per key"
          build.build_words_per_key max_build_words_per_key );
      ( store_ratio <= max_store_bytes_per_user_byte,
        Printf.sprintf "%.4f store arena bytes/user byte (gate: %g) — items take more than their size"
          store_ratio max_store_bytes_per_user_byte );
      ( ev_per_req <= 4.5,
        Printf.sprintf "%.2f events/request (gate: 4.5) — extra per-request events crept in"
          ev_per_req );
      (events_per_sec >= 1e6, Printf.sprintf "%.0f dsim events/sec (floor: 1M)" events_per_sec);
    ]

(* A gated runner at its own defaults: the same run and emit as
   [minos <target> --quick --json BENCH_<target>.json], then its [check]
   gates the run.  CI also checks that a rerun at the same seed, at any
   MINOS_JOBS, is byte-identical. *)
let gated target (run : Minos.Run.t -> 'a) (report : 'a Minos.Run.report) () =
  let r = { Minos.Run.default with Minos.Run.scale; json = Some (bench_file target) } in
  let t = run r in
  Minos.Run.emit r report t;
  enforce target (report.Minos.Run.check t)

let targets : (string * string * (unit -> unit)) list =
  List.map (fun (name, (doc, print)) -> (name, doc, fun () -> print quick)) Minos.Figures.table
  @ [
      ("capacity", "closed-form capacity model", run_capacity);
      (* guarded Minos beats plain under core-stall and loss10; overload sheds *)
      ( "chaos",
        "fault plans vs hardened/plain designs",
        gated "chaos" (fun r -> Minos.Chaos.run r) Minos.Chaos.report );
      (* per-shard Minos p99 below keyhash; fan-out p99 grows with the degree *)
      ( "cluster",
        "multi-server sharding + fan-out multi-GET",
        gated "cluster" (fun r -> Minos.Cluster.run r) Minos.Cluster.report );
      (* exact accounting and a clean key audit across add-remove; migration
         p99 within 3x of steady state *)
      ( "reshard",
        "elastic resharding: live migration + replicas",
        gated "reshard" (fun r -> Minos.Reshard.run r) Minos.Reshard.report );
      (* hedged Minos p99 under the kill within 3x of fault-free, unhedged
         at least 10x *)
      ( "hedge",
        "replica-aware tail-cutting vs kill-server chaos",
        gated "hedge" (fun r -> Minos.Hedge.run r) Minos.Hedge.report );
      (* the extended identity telescopes in every row; scan-heavy, cold-tier
         and ttl-churn exercise their features *)
      ( "scenarios",
        "scenario suite: arrivals/TTL/scans/cold-tier",
        gated "scenarios" (fun r -> Minos.Scenarios.run r) Minos.Scenarios.report );
      ("obs", "flight-recorder overhead on/off", run_obs);
    ]

let run_perf sweep_target =
  Minos.Report.section "Hot-path performance profile";
  let heap_ns = perf_heap_ns () in
  let wheel_ns = perf_wheel_ns () in
  let p = perf_sim () in
  let dataset_words = dataset_words_per_key () in
  let build = perf_build () in
  let populate = perf_populate () in
  let store_ratio = populate.store_ratio in
  let udp_collections = udp_get_collections () in
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
      [ "dsim events/sec"; Printf.sprintf "%.0f" p.events_per_sec ];
      [ "minor words/request"; Printf.sprintf "%.1f" p.minor_per_req ];
      [ "major words/request"; Printf.sprintf "%.3f" p.major_per_req ];
      [ "dataset heap words/key"; Printf.sprintf "%.3f" dataset_words ];
      [ "dataset build ms"; Printf.sprintf "%.1f" build.build_ms ];
      [ "  zipf normalizer ms"; Printf.sprintf "%.1f" build.zeta_ms ];
      [ "  size draw ms (build - zipf)"; Printf.sprintf "%.1f" (build.build_ms -. build.zeta_ms) ];
      [ "dataset build minor words/key"; Printf.sprintf "%.4f" build.build_words_per_key ];
      [ "store arena bytes/user byte"; Printf.sprintf "%.4f" store_ratio ];
      [ "  populate ms (100k keys)"; Printf.sprintf "%.1f" populate.populate_ms ];
      [ "  populate minor faults"; string_of_int populate.populate_minflt ];
      [ "  AnonHugePages kB after populate"; string_of_int populate.anon_huge_kb ];
      [ "UDP GET minor collections (20k)"; string_of_int udp_collections ];
      [ sweep_target ^ " sweep seconds"; Printf.sprintf "%.2f" sweep_s ];
    ];
  Obs.Json.(
    to_file (bench_file "perf")
      (Obj
         [
           ("quick", Bool quick);
           ("jobs", Int (Minos.Par.jobs ()));
           ("heap_add_pop_ns", Float heap_ns);
           ("wheel_add_pop_ns", Float wheel_ns);
           ("dsim_events_per_sec", Float p.events_per_sec);
           ("minor_words_per_request", Float p.minor_per_req);
           ("major_words_per_request", Float p.major_per_req);
           ("dataset_words_per_key", Float dataset_words);
           ("dataset_build_ms", Float build.build_ms);
           ("dataset_zeta_ms", Float build.zeta_ms);
           ("dataset_build_minor_words_per_key", Float build.build_words_per_key);
           ("store_arena_bytes_per_user_byte", Float store_ratio);
           ("store_populate_ms", Float populate.populate_ms);
           ("store_populate_minor_faults", Int populate.populate_minflt);
           ("store_anon_huge_pages_kb", Int populate.anon_huge_kb);
           ("udp_get_minor_collections", Int udp_collections);
           ("sim_events", Int p.events);
           ("sim_issued", Int p.issued);
           ("sweep_target", String sweep_target);
           ("sweep_seconds", Float sweep_s);
         ]));
  Printf.printf "[perf profile written to %s]\n%!" (bench_file "perf");
  enforce "perf" (perf_gate p ~dataset_words ~build ~store_ratio ~udp_collections)

let usage () =
  print_endline "usage: bench/main.exe [target ...]   (default: all targets)";
  print_endline "       bench/main.exe perf [sweep-target]";
  print_endline
    "  perf measures heap ns/op, dsim events/sec, minor and major words/request,";
  print_endline "  the dataset's heap words/key, its build's ms (zipf normalizer, size draw) and";
  print_endline
    "  minor words/key, the native store's arena bytes per user byte (and its populate's";
  print_endline "  ms, minor faults and AnonHugePages kB, not gated), and";
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
        let p = perf_sim () in
        Printf.printf "events/sec %.0f  words/req %.1f\n%!" p.events_per_sec p.minor_per_req
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
