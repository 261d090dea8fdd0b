(* Tests for the scenario engine: the versioned trace format (timed
   round-trips and the decode-error contract), TTL expiry (lazy reads vs
   the background sweep must agree), the eviction conservation identity,
   SCAN against a sorted reference, and the scenario suite's determinism
   contract (byte-identical at any MINOS_JOBS). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let tmp_file name = Filename.concat (Filename.get_temp_dir_name ()) name

(* A small dataset so the residency/store tests stay fast. *)
let small_spec =
  { Workload.Spec.default with Workload.Spec.n_keys = 2_000; n_large_keys = 16 }

let small_dataset = Workload.Dataset.create small_spec

(* ------------------------------------------------------------------ *)
(* Trace format *)

let sample_requests n =
  let gen =
    Workload.Generator.create ~seed:7 ~scan_ratio:0.1 ~scan_len:8 small_dataset
  in
  Array.init n (fun _ -> Workload.Generator.next gen)

let test_trace_timed_roundtrip () =
  let reqs = sample_requests 257 in
  let ts = Array.init 257 (fun i -> 3.5 *. float_of_int i) in
  let trace = Workload.Trace.of_timed reqs ts in
  let path = tmp_file "minos_trace_v2.bin" in
  Workload.Trace.save path trace;
  let back = Workload.Trace.load path in
  Sys.remove path;
  check bool "timed" true (Workload.Trace.timed back);
  check int "length" 257 (Workload.Trace.length back);
  check bool "requests equal" true (Workload.Trace.requests back = reqs);
  check bool "timestamps equal" true (Workload.Trace.timestamps back = ts)

(* Fuzz: a mutated copy of a saved v1 (untimed) or v2 (timed) trace
   either loads with every key id a valid index (>= 0), or fails with
   the documented [Failure "Trace.load: ..."] — never another exception.
   One temp file per format. *)
let prop_trace_load_contract ?(kept_length = false) version trace =
  let path =
    tmp_file
      (Printf.sprintf "minos_trace_fuzz_%s%s.bin" version (if kept_length then "_kept" else ""))
  in
  Workload.Trace.save path trace;
  let base = In_channel.with_open_bin path In_channel.input_all in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "Trace.load loads or raises Failure on %s %s files"
         (if kept_length then "length-kept mutated" else "mutated")
         version)
    ~count:3000
    ((if kept_length then Fuzz.replaced else Fuzz.mutated) ~alphabet:Fuzz.bytes_alphabet [ base ])
    (fun data ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
      match Workload.Trace.load path with
      | t ->
          Array.for_all
            (fun (r : Workload.Generator.request) -> r.Workload.Generator.key_id >= 0)
            (Workload.Trace.requests t)
      | exception Failure msg when String.starts_with ~prefix:"Trace.load: " msg -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let prop_trace_load_v1 =
  prop_trace_load_contract "v1"
    (Workload.Trace.capture (Workload.Generator.create ~seed:9 small_dataset) ~n:16)

let prop_trace_load_v2 =
  prop_trace_load_contract "v2"
    (Workload.Trace.of_timed (sample_requests 16)
       (Array.init 16 (fun i -> 2.0 *. float_of_int i)))

(* Length-kept edits reach the records behind the header's count. *)
let prop_trace_load_v1_kept =
  prop_trace_load_contract ~kept_length:true "v1"
    (Workload.Trace.capture (Workload.Generator.create ~seed:9 small_dataset) ~n:16)

let prop_trace_load_v2_kept =
  prop_trace_load_contract ~kept_length:true "v2"
    (Workload.Trace.of_timed (sample_requests 16)
       (Array.init 16 (fun i -> 2.0 *. float_of_int i)))

let test_trace_untimed_stays_v1 () =
  (* A scan-free untimed capture must keep the original v1 format so old
     files and old readers stay compatible. *)
  let gen = Workload.Generator.create ~seed:9 small_dataset in
  let trace = Workload.Trace.capture gen ~n:100 in
  let path = tmp_file "minos_trace_v1.bin" in
  Workload.Trace.save path trace;
  let ic = open_in_bin path in
  let header = really_input_string ic 6 in
  close_in ic;
  let back = Workload.Trace.load path in
  Sys.remove path;
  check string "v1 header" "MNTR1\n" header;
  check bool "untimed" false (Workload.Trace.timed back);
  check bool "requests equal" true
    (Workload.Trace.requests back = Workload.Trace.requests trace)

let expect_load_failure name path =
  (match Workload.Trace.load path with
  | _ -> Alcotest.failf "%s: load should have raised" name
  | exception Failure _ -> ());
  Sys.remove path

let write_valid_trace path =
  let gen = Workload.Generator.create ~seed:11 small_dataset in
  Workload.Trace.save path (Workload.Trace.capture gen ~n:32)

let test_trace_rejects_garbage () =
  (* Trailing bytes after the declared records. *)
  let path = tmp_file "minos_trace_garbage.bin" in
  write_valid_trace path;
  let oc = open_out_gen [ Open_append; Open_binary ] 0o600 path in
  output_string oc "xx";
  close_out oc;
  expect_load_failure "trailing garbage" path;
  (* Truncation. *)
  let path = tmp_file "minos_trace_trunc.bin" in
  write_valid_trace path;
  let len = (Unix.stat path).Unix.st_size in
  let ic = open_in_bin path in
  let data = really_input_string ic (len - 5) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc;
  expect_load_failure "truncated" path;
  (* Item-size field overflow: corrupt the first record's size field
     (file offset 6-byte header + 8-byte count + op + is_large + key_id). *)
  let path = tmp_file "minos_trace_overflow.bin" in
  write_valid_trace path;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o600 in
  ignore (Unix.lseek fd 24 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff\xff\xff\x7f") 0 4);
  Unix.close fd;
  expect_load_failure "size overflow" path;
  (* A negative key id (the first record's key_id at offset 16): it
     would index the dataset's arrays out of bounds mid-replay. *)
  let path = tmp_file "minos_trace_negkey.bin" in
  write_valid_trace path;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o600 in
  ignore (Unix.lseek fd 16 Unix.SEEK_SET);
  let key = Bytes.create 8 in
  Bytes.set_int64_le key 0 (-7L);
  ignore (Unix.write fd key 0 8);
  Unix.close fd;
  expect_load_failure "negative key id" path

let test_trace_rejects_future_version () =
  (* Forward compatibility: a version we do not know is an explicit
     decode error, never a silent misparse. *)
  let path = tmp_file "minos_trace_v9.bin" in
  write_valid_trace path;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o600 in
  ignore (Unix.lseek fd 4 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "9") 0 1);
  Unix.close fd;
  expect_load_failure "future version" path;
  let path = tmp_file "minos_trace_magic.bin" in
  write_valid_trace path;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o600 in
  ignore (Unix.write fd (Bytes.of_string "XXXX") 0 4);
  Unix.close fd;
  expect_load_failure "bad magic" path

(* ------------------------------------------------------------------ *)
(* TTL expiry in the simulator's residency model: lazy reads and the
   background sweep must agree. *)

let test_residency_lazy_vs_sweep () =
  (* The model-side residency tracker: sweeping early must reclaim the
     same keys a lazy read pass would, with identical expiry counts. *)
  let make () =
    let r = Kvserver.Residency.create ~ttl_us:100.0 small_dataset in
    ignore (Kvserver.Residency.populate r ~now:0.0);
    r
  in
  let lazy_r = make () and sweep_r = make () in
  let n = Workload.Dataset.n_keys small_dataset in
  let live = ref 0 in
  for id = 0 to n - 1 do
    if Kvserver.Residency.on_get lazy_r ~now:250.0 id then incr live
  done;
  let reclaimed = ref 0 in
  while
    let got = Kvserver.Residency.sweep_step sweep_r ~now:250.0 ~chunk:64 in
    reclaimed := !reclaimed + got;
    Kvserver.Residency.resident sweep_r > 0
  do
    ()
  done;
  check int "everything lapsed" 0 !live;
  check int "sweep reclaims the same keys" n !reclaimed;
  check int "expired counts agree"
    (Kvserver.Residency.expired_keys lazy_r)
    (Kvserver.Residency.expired_keys sweep_r);
  check int "lazy misses recorded" n (Kvserver.Residency.expired_misses lazy_r)

(* ------------------------------------------------------------------ *)
(* Eviction conservation *)

let test_eviction_conservation () =
  let budget = Workload.Dataset.total_value_bytes small_dataset / 4 in
  let r =
    Kvserver.Residency.create ~ttl_us:5_000.0 ~budget_bytes:budget small_dataset
  in
  let populated = Kvserver.Residency.populate r ~now:0.0 in
  check bool "dataset larger than memory" true
    (populated < Workload.Dataset.n_keys small_dataset);
  let rng = Dsim.Rng.create 42 in
  let n = Workload.Dataset.n_keys small_dataset in
  for i = 1 to 20_000 do
    let now = float_of_int i in
    let id = Dsim.Rng.int rng n in
    if Dsim.Rng.int rng 100 < 30 then Kvserver.Residency.on_put r ~now rng id
    else ignore (Kvserver.Residency.on_get r ~now id);
    if i mod 512 = 0 then ignore (Kvserver.Residency.sweep_step r ~now ~chunk:32)
  done;
  check bool "memory within budget" true
    (Kvserver.Residency.mem_used r <= Kvserver.Residency.budget_bytes r);
  check bool "eviction happened" true (Kvserver.Residency.evicted_keys r > 0);
  check bool "expiry happened" true (Kvserver.Residency.expired_keys r > 0);
  (* The conservation identity: every insertion is still resident or was
     reclaimed by exactly one of the two legs. *)
  check int "inserts = resident + evicted + expired"
    (Kvserver.Residency.inserts r)
    (Kvserver.Residency.resident r
    + Kvserver.Residency.evicted_keys r
    + Kvserver.Residency.expired_keys r)

(* ------------------------------------------------------------------ *)
(* SCAN vs a sorted reference *)

let test_scan_matches_sorted_reference () =
  let store =
    Kvstore.Store.create ~partition_bits:2 ~bucket_bits:8 ~value_arena_bytes:(1 lsl 22) ()
  in
  (* A scattered subset of ids, inserted in shuffled order. *)
  let rng = Dsim.Rng.create 5 in
  let ids = Array.init 300 (fun _ -> Dsim.Rng.int rng 100_000) in
  Array.iter
    (fun id ->
      Kvstore.Store.put store ~guard:`Lock (Workload.Dataset.key_name id)
        (Bytes.create ((id mod 50) + 1)))
    ids;
  let sorted =
    List.sort_uniq compare (Array.to_list (Array.map Workload.Dataset.key_name ids))
  in
  let start = Workload.Dataset.key_name 30_000 in
  let expect =
    List.filteri (fun i _ -> i < 40) (List.filter (fun k -> k >= start) sorted)
  in
  let got = ref [] in
  let visited =
    Kvstore.Store.scan store ~start ~count:40 (fun key size ->
        check int "scan reports stored size" ((int_of_string ("0x" ^ String.sub key 1 8) mod 50) + 1) size;
        got := key :: !got)
  in
  check int "visited count" (List.length expect) visited;
  check bool "keys in ascending order" true (List.rev !got = expect);
  (* Deleting a key mid-range removes it from subsequent scans. *)
  match expect with
  | [] | [ _ ] -> Alcotest.fail "reference range unexpectedly small"
  | _ :: victim :: _ ->
      ignore (Kvstore.Store.delete store ~guard:`Lock victim);
      let got' = ref [] in
      ignore
        (Kvstore.Store.scan store ~start ~count:(List.length expect - 1)
           (fun key _ -> got' := key :: !got'));
      check bool "deleted key skipped" true
        (not (List.mem victim (List.rev !got')))

(* ------------------------------------------------------------------ *)
(* Scenario suite determinism *)

let with_jobs n f =
  Minos.Par.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Minos.Par.set_jobs None) f

let quick_cfg () = Minos.Experiment.config_of_scale Minos.Experiment.quick_scale

let quick_run seed =
  { Minos.Run.default with Minos.Run.scale = Minos.Experiment.quick_scale; seed }

let scenario name =
  match Workload.Scenario.parse name with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "%s: %s" name e

let quick_point sc =
  Minos.Experiment.Spec.make Kvserver.Design.minos
  |> Minos.Experiment.Spec.with_workload sc
  |> Minos.Experiment.Spec.with_cfg (quick_cfg ())
  |> Minos.Experiment.Spec.with_load 2.0

let test_scenarios_jobs_identical () =
  let names = [ "ttl-churn"; "scan-heavy" ] in
  let run jobs =
    with_jobs jobs (fun () ->
        Obs.Json.to_string
          (Minos.Scenarios.report.Minos.Run.to_json
             (Minos.Scenarios.run ~names (quick_run 3))))
  in
  let sequential = run 1 in
  check string "MINOS_JOBS=4 byte-identical" sequential (run 4);
  check string "rerun byte-identical" sequential (run 1)

let test_scenarios_telescope () =
  (* The larger-than-memory scenario must complete with the extended
     loss-accounting identity exact, and actually exercise the new legs. *)
  let t =
    Minos.Scenarios.run ~names:[ "cold-tier"; "diurnal"; "bursts" ] (quick_run 1)
  in
  List.iter
    (fun (r : Minos.Scenarios.row) ->
      check
        Alcotest.(result unit string)
        (Printf.sprintf "%s/%s telescopes" r.Minos.Scenarios.scenario
           r.Minos.Scenarios.design)
        (Ok ())
        (Obs.Ledger.check (Kvserver.Metrics.ledger r.Minos.Scenarios.metrics)))
    t.Minos.Scenarios.rows;
  let cold =
    List.filter
      (fun (r : Minos.Scenarios.row) -> r.Minos.Scenarios.scenario = "cold-tier")
      t.Minos.Scenarios.rows
  in
  check bool "cold-tier ran" true (cold <> []);
  List.iter
    (fun (r : Minos.Scenarios.row) ->
      let m = r.Minos.Scenarios.metrics in
      check bool "cold-tier misses" true (m.Kvserver.Metrics.expired_misses > 0);
      check bool "cold-tier evicts" true (m.Kvserver.Metrics.evicted_keys > 0))
    cold

let test_scenarios_check () =
  (* The bench target's gate, on the three scenarios it names. *)
  let t =
    Minos.Scenarios.run ~names:[ "scan-heavy"; "cold-tier"; "ttl-churn" ] (quick_run 1)
  in
  (match Minos.Scenarios.report.Minos.Run.check t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "scenarios check: %s" msg);
  check bool "a run without the named scenarios is rejected" true
    (Result.is_error
       (Minos.Scenarios.report.Minos.Run.check { t with Minos.Scenarios.rows = [] }))

let test_timed_trace_replay_deterministic () =
  (* A timed capture replayed through the engine must be reproducible,
     and must go down the recorded-pacing path (no Poisson draws). *)
  let sc = scenario "bursts" in
  let dataset = Minos.Experiment.dataset_for sc.Workload.Scenario.spec in
  let trace =
    Workload.Scenario.capture ~seed:13 sc dataset ~rate_mops:2.0 ~n:20_000
  in
  check bool "capture is timed" true (Workload.Trace.timed trace);
  let run () =
    quick_point (Workload.Scenario.of_spec sc.Workload.Scenario.spec)
    |> Minos.Experiment.Spec.with_seed 2
    |> Minos.Experiment.Spec.with_trace trace
    |> Minos.Experiment.run_spec
  in
  let a = run () and b = run () in
  check bool "identical metrics" true (compare a b = 0);
  check bool "served requests" true (a.Kvserver.Metrics.served_total > 0)

let test_trace_replay_honours_ttl () =
  (* A replayed trace runs under its scenario's TTL: GETs of lapsed keys
     miss. *)
  let sc = scenario "ttl-churn" in
  let dataset = Minos.Experiment.dataset_for sc.Workload.Scenario.spec in
  let trace = Workload.Scenario.capture ~seed:13 sc dataset ~rate_mops:2.0 ~n:20_000 in
  let m =
    Minos.Experiment.run_spec (Minos.Experiment.Spec.with_trace trace (quick_point sc))
  in
  check bool "expired misses" true (m.Kvserver.Metrics.expired_misses > 0);
  check
    Alcotest.(result unit string)
    "telescopes" (Ok ())
    (Obs.Ledger.check (Kvserver.Metrics.ledger m))

(* [f ()] raises [Invalid_argument] and its message contains each of
   [needles]. *)
let refused_naming needles f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument naming %s" (String.concat ", " needles)
  | exception Invalid_argument msg ->
      List.iter
        (fun needle ->
          let n = String.length needle in
          let rec found i =
            i + n <= String.length msg && (String.sub msg i n = needle || found (i + 1))
          in
          if not (found 0) then Alcotest.failf "%S does not name %S" msg needle)
        needles

let test_trace_conflicts_refused () =
  (* The engine replays a timed trace at its own recorded arrivals, and
     runs one request source: a second arrival process or a second trace
     cannot be honoured, and is refused by name. *)
  let diurnal = scenario "diurnal" in
  let dataset = Minos.Experiment.dataset_for diurnal.Workload.Scenario.spec in
  let timed = Workload.Scenario.capture ~seed:3 diurnal dataset ~rate_mops:2.0 ~n:1_000 in
  refused_naming [ "timed trace"; "not Poisson" ] (fun () ->
      Minos.Experiment.run_spec (Minos.Experiment.Spec.with_trace timed (quick_point diurnal)));
  let cold = scenario "cold-tier" in
  refused_naming [ "replay" ] (fun () ->
      Minos.Experiment.run_spec (Minos.Experiment.Spec.with_trace timed (quick_point cold)));
  (* A dynamic phase plan varies the generator's p_large; a replayed trace
     replaces the generator, so the plan would be dropped silently. *)
  let plan =
    Workload.Dynamic.create
      [
        { Workload.Dynamic.duration_us = 20_000.0; p_large = 0.125 };
        { Workload.Dynamic.duration_us = 20_000.0; p_large = 0.75 };
      ]
  in
  let default = scenario "default" in
  let untimed =
    Workload.Trace.capture (Workload.Scenario.generator ~seed:1 default dataset) ~n:1_000
  in
  refused_naming [ "dynamic phase plan"; "trace" ] (fun () ->
      Minos.Experiment.run_spec
        (quick_point default
        |> Minos.Experiment.Spec.with_trace untimed
        |> Minos.Experiment.Spec.with_dynamic plan));
  refused_naming [ "dynamic phase plan"; "replay" ] (fun () ->
      Minos.Experiment.run_spec (quick_point cold |> Minos.Experiment.Spec.with_dynamic plan));
  (* At the engine, a dynamic plan belongs to generated content, so it
     cannot be paired with a trace at all; what remains to refuse is a
     recorded clock without recorded offsets, and an empty trace. *)
  let gen = Workload.Scenario.generator ~seed:1 default dataset in
  let create intake () =
    Kvserver.Engine.create ~intake (quick_cfg ()) gen ~offered_mops:2.0
  in
  refused_naming [ "recorded clock"; "generated content" ]
    (create
       {
         Kvserver.Engine.content = Generated { dynamic = Some plan; keep = None };
         clock = Recorded;
       });
  refused_naming [ "recorded clock"; "timestamped trace" ]
    (create { Kvserver.Engine.content = Replayed untimed; clock = Recorded });
  refused_naming [ "replayed trace is empty" ]
    (create
       {
         Kvserver.Engine.content = Replayed (Workload.Trace.of_timed [||] [||]);
         clock = Poisson None;
       })

let test_trace_key_ids_checked () =
  (* A trace captured over a larger dataset than the replaying scenario's
     names keys the engine does not have: refused before the run, naming
     the largest key id and the dataset's size. *)
  let wide = scenario "write-intensive" in
  let dataset = Minos.Experiment.dataset_for wide.Workload.Scenario.spec in
  let trace =
    Workload.Trace.capture (Workload.Scenario.generator ~seed:1 wide dataset) ~n:20_000
  in
  let max_key =
    Array.fold_left
      (fun acc (r : Workload.Generator.request) -> max acc r.Workload.Generator.key_id)
      0 (Workload.Trace.requests trace)
  in
  let narrow = scenario "ttl-churn" in
  let n_keys = narrow.Workload.Scenario.spec.Workload.Spec.n_keys in
  check bool "trace reaches past the narrow dataset" true (max_key >= n_keys);
  refused_naming
    [ string_of_int max_key; Printf.sprintf "n_keys = %d" n_keys ]
    (fun () ->
      Minos.Experiment.run_spec (Minos.Experiment.Spec.with_trace trace (quick_point narrow)))

let test_nan_knobs_rejected () =
  (* A NaN passes a [<]/[>] range test; every knob must still refuse it,
     and the knobs that switch a feature off when non-positive must
     refuse infinity too. *)
  let refused s =
    check bool (s ^ " refused") true (Result.is_error (Workload.Scenario.parse s))
  in
  List.iter
    (fun (scenario, knob) -> refused (Printf.sprintf "%s,%s=nan" scenario knob))
    [
      ("default", "p_large");
      ("default", "s_large");
      ("default", "get_ratio");
      ("default", "n_keys");
      ("default", "ttl_ms");
      ("default", "sweep_ms");
      ("default", "scan_ratio");
      ("default", "scan_len");
      ("cold-tier", "mem_fraction");
      ("diurnal", "amplitude");
      ("diurnal", "period_ms");
      ("bursts", "on_ms");
      ("bursts", "off_ms");
      ("bursts", "factor");
    ];
  List.iter refused
    [ "default,ttl_ms=inf"; "default,sweep_ms=inf"; "cold-tier,mem_fraction=inf" ];
  check bool "finite knobs still parse" true
    (Result.is_ok (Workload.Scenario.parse "cold-tier,mem_fraction=0.5,ttl_ms=0"))

let test_unknown_knob_refused () =
  (* A knob no scenario consumes is refused by name: [load] used to parse
     and be dropped, so [-w default,load=50] silently ran at the
     subcommand's own load. *)
  check
    Alcotest.(result reject string)
    "load is not a knob" (Error "default: unknown knob \"load\"")
    (Result.map ignore (Workload.Scenario.parse "default,load=50"))

let test_idle_sweep_refused () =
  (* A sweep reclaims only what a TTL or a memory budget expires; alone it
     used to parse and be dropped, so [-w default,sweep_ms=5] ran the
     plain default workload. *)
  check
    Alcotest.(result reject string)
    "sweep without ttl or budget"
    (Error "default: sweep_ms needs ttl_ms or mem_fraction: there is nothing to sweep")
    (Result.map ignore (Workload.Scenario.parse "default,sweep_ms=5"));
  check bool "ttl-churn without its TTL refused" true
    (Result.is_error (Workload.Scenario.parse "ttl-churn,ttl_ms=0"));
  List.iter
    (fun s -> check bool (s ^ " parses") true (Result.is_ok (Workload.Scenario.parse s)))
    [ "ttl-churn,ttl_ms=10,sweep_ms=5"; "ttl-churn,ttl_ms=0,sweep_ms=0"; "cold-tier,ttl_ms=0" ]

let test_idle_scan_len_refused () =
  (* Without SCANs a SCAN length is never read, so setting it is refused
     rather than silently dropped. *)
  check
    Alcotest.(result reject string)
    "scan_len without scans"
    (Error "default: scan_len needs scan_ratio > 0: no request is a SCAN")
    (Result.map ignore (Workload.Scenario.parse "default,scan_len=50"));
  check bool "scan_len with scans parses" true
    (Result.is_ok (Workload.Scenario.parse "default,scan_ratio=0.01,scan_len=50"))

(* Every knob either is refused or matters.  For every builtin scenario
   and every common knob, set to a value away from the scenario's own,
   [parse] refuses it or a short run differs from the base scenario's.
   [paper] is left out: it is [default]'s flat mix over a 16M-key dataset
   (~170 MB to build), so its knobs take [default]'s code paths.  The run
   is long enough for the builtin TTLs (at most 150 ms) to lapse, so a
   sweep has something to reclaim, at a light load to stay cheap. *)
let knob_value (b : Workload.Scenario.t) knob =
  let spec = b.Workload.Scenario.spec in
  let ms us = us /. 1000.0 in
  match knob with
  | "p_large" -> Printf.sprintf "%g" (4.0 *. spec.Workload.Spec.p_large)
  | "s_large" -> string_of_int (spec.Workload.Spec.s_large_max / 2)
  | "get_ratio" -> if spec.Workload.Spec.get_ratio > 0.6 then "0.5" else "0.95"
  | "n_keys" -> string_of_int (spec.Workload.Spec.n_keys / 2)
  | "ttl_ms" -> (
      match b.Workload.Scenario.ttl_us with
      | None -> "20"
      | Some us -> Printf.sprintf "%g" (ms us /. 10.0))
  | "sweep_ms" -> "1"
  | "scan_ratio" ->
      if b.Workload.Scenario.scan_ratio = 0.0 then "0.05"
      else Printf.sprintf "%g" (b.Workload.Scenario.scan_ratio /. 2.0)
  | "scan_len" -> string_of_int (2 * b.Workload.Scenario.scan_len)
  | "mem_fraction" -> (
      match b.Workload.Scenario.mem_fraction with
      | None -> "0.5"
      | Some f -> Printf.sprintf "%g" (f /. 2.0))
  | "replay" -> string_of_bool (not b.Workload.Scenario.replay)
  | _ -> (
      (* Arrival knobs: half the scenario's value where it has one; any
         other scenario refuses them whatever the value. *)
      match (b.Workload.Scenario.arrival, knob) with
      | Workload.Arrival.Diurnal d, "amplitude" -> Printf.sprintf "%g" (d.amplitude /. 2.0)
      | Workload.Arrival.Diurnal d, "period_ms" -> Printf.sprintf "%g" (ms d.period_us /. 2.0)
      | Workload.Arrival.Bursts b, "on_ms" -> Printf.sprintf "%g" (ms b.on_us /. 2.0)
      | Workload.Arrival.Bursts b, "off_ms" -> Printf.sprintf "%g" (ms b.off_us /. 2.0)
      | Workload.Arrival.Bursts b, "factor" -> Printf.sprintf "%g" (b.factor /. 2.0)
      | _ -> "1")

let test_every_knob_matters () =
  let cfg =
    { (quick_cfg ()) with
      Kvserver.Config.duration_us = 200_000.0; warmup_us = 5_000.0; epoch_us = 5_000.0 }
  in
  let fingerprint sc =
    let m =
      Minos.Experiment.Spec.make Kvserver.Design.minos
      |> Minos.Experiment.Spec.with_workload sc
      |> Minos.Experiment.Spec.with_cfg cfg
      |> Minos.Experiment.Spec.with_load 0.1
      |> Minos.Experiment.run_spec
    in
    Kvserver.Metrics.
      ( m.issued, m.p50_us, m.p99_us, m.per_core_ops, m.expired_misses, m.expired_keys,
        m.evicted_keys )
  in
  let mattered = Hashtbl.create 16 in
  List.iter
    (fun (info : Workload.Scenario.info) ->
      let name = info.Workload.Scenario.name in
      if name <> "paper" then begin
        let base = fingerprint (scenario name) in
        List.iter
          (fun (knob, _) ->
            let arg = Printf.sprintf "%s,%s=%s" name knob (knob_value info.base knob) in
            match Workload.Scenario.parse arg with
            | Error _ -> ()
            | Ok sc ->
                if compare (fingerprint sc) base = 0 then
                  Alcotest.failf "%s parses but runs like %s" arg name;
                Hashtbl.replace mattered knob ())
          Workload.Scenario.common_knobs
      end)
    (Workload.Scenario.all ());
  List.iter
    (fun (knob, _) ->
      check bool (knob ^ " matters on some scenario") true (Hashtbl.mem mattered knob))
    Workload.Scenario.common_knobs

let test_flat_refuses_extras () =
  (* The flat-mix runners (sweep, numa, cluster, reshard, hedge) run only
     the mix; a scenario with extras must be refused by
     name, never reduced. *)
  (match Workload.Scenario.flat (scenario "cold-tier") with
  | Ok _ -> Alcotest.fail "cold-tier reduced to its flat mix"
  | Error msg ->
      check string "extras named"
        "scenario cold-tier has extras only a single engine honours \
         (arrival, ttl, mem_fraction, replay); pick a flat workload"
        msg);
  match Workload.Scenario.flat (scenario "default") with
  | Ok spec -> check bool "default is the flat default spec" true (spec = Workload.Spec.default)
  | Error e -> Alcotest.failf "default refused: %s" e

let () =
  Alcotest.run "scenarios"
    [
      ( "trace",
        [
          Alcotest.test_case "timed round-trip" `Quick test_trace_timed_roundtrip;
          Alcotest.test_case "untimed stays v1" `Quick test_trace_untimed_stays_v1;
          Alcotest.test_case "rejects corruption" `Quick test_trace_rejects_garbage;
          Alcotest.test_case "rejects future versions" `Quick
            test_trace_rejects_future_version;
          QCheck_alcotest.to_alcotest prop_trace_load_v1;
          QCheck_alcotest.to_alcotest prop_trace_load_v2;
          QCheck_alcotest.to_alcotest prop_trace_load_v1_kept;
          QCheck_alcotest.to_alcotest prop_trace_load_v2_kept;
        ] );
      ( "ttl",
        [
          Alcotest.test_case "residency lazy vs sweep" `Quick
            test_residency_lazy_vs_sweep;
        ] );
      ( "eviction",
        [ Alcotest.test_case "conservation" `Quick test_eviction_conservation ] );
      ( "scan",
        [
          Alcotest.test_case "matches sorted reference" `Quick
            test_scan_matches_sorted_reference;
        ] );
      ( "suite",
        [
          Alcotest.test_case "flat drivers refuse extras" `Quick
            test_flat_refuses_extras;
          Alcotest.test_case "jobs byte-identical" `Quick
            test_scenarios_jobs_identical;
          Alcotest.test_case "telescoping + cold tier" `Quick
            test_scenarios_telescope;
          Alcotest.test_case "suite check" `Quick test_scenarios_check;
          Alcotest.test_case "nan knobs rejected" `Quick test_nan_knobs_rejected;
          Alcotest.test_case "unknown knob refused" `Quick test_unknown_knob_refused;
          Alcotest.test_case "sweep with nothing to sweep refused" `Quick
            test_idle_sweep_refused;
          Alcotest.test_case "idle scan_len refused" `Quick test_idle_scan_len_refused;
          Alcotest.test_case "every knob matters" `Quick test_every_knob_matters;
          Alcotest.test_case "timed replay deterministic" `Quick
            test_timed_trace_replay_deterministic;
          Alcotest.test_case "trace replay honours TTL" `Quick
            test_trace_replay_honours_ttl;
          Alcotest.test_case "trace conflicts refused" `Quick
            test_trace_conflicts_refused;
          Alcotest.test_case "trace key ids checked" `Quick test_trace_key_ids_checked;
        ] );
    ]
