(* Shardmgr tests: plan parsing and validation, the compiled routing
   table's invariants, the manager's hysteresis, the key-conservation
   protocol audit, and miniature end-to-end reshard runs pinning the
   determinism contract — a no-op plan is byte-identical to the static
   cluster run, and mid-run add/remove preserves exact loss accounting
   with zero lost/duplicated keys, at any MINOS_JOBS. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let with_jobs n f =
  Minos.Par.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Minos.Par.set_jobs None) f

let scale = Minos.Experiment.quick_scale

let cfg =
  {
    (Minos.Experiment.config_of_scale scale) with
    Kvserver.Config.window_us = Some scale.Minos.Experiment.window_us;
  }

let workload = Workload.Spec.default
let dataset () = Minos.Experiment.dataset_for workload

let canned name =
  Option.get
    (Shardmgr.Plan.canned name ~warmup_us:cfg.Kvserver.Config.warmup_us
       ~duration_us:cfg.Kvserver.Config.duration_us)

let compile ?policy ?(servers = 2) ?(offered = 4.0) ?(seed = 3) plan =
  Shardmgr.Table.compile ?policy ~seed ~servers ~workload ~dataset:(dataset ())
    ~duration_us:cfg.Kvserver.Config.duration_us ~offered_mops:offered plan

(* ------------------------------------------------------------------ *)
(* Plan *)

let test_plan_round_trip () =
  List.iter
    (fun name ->
      let p = canned name in
      check bool (name ^ " validates") true (Shardmgr.Plan.validate p = Ok ());
      match Shardmgr.Plan.of_string (Shardmgr.Plan.to_string p) with
      | Error e -> Alcotest.failf "%s does not re-parse: %s" name e
      | Ok p' ->
          check bool (name ^ " round-trips") true (compare p p' = 0))
    Shardmgr.Plan.canned_names

let test_plan_rejects_overlapping_windows () =
  let p =
    {
      Shardmgr.Plan.name = "bad";
      events =
        [
          Shardmgr.Plan.Add_server
            { at_us = 1000.0; drain_us = 500.0; dual_us = 2000.0 };
          Shardmgr.Plan.Add_server
            { at_us = 2000.0; drain_us = 500.0; dual_us = 2000.0 };
        ];
    }
  in
  check bool "overlap rejected" true
    (Result.is_error (Shardmgr.Plan.validate p))

let test_plan_parse_errors () =
  List.iter
    (fun line ->
      match Shardmgr.Plan.of_string line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [
      "frobnicate at=10";
      "add-server at=-5";
      "add-server at=nope";
      "remove-server at=10";
      (* missing server= *)
      "add-replica at=10";
      (* missing shard= *)
      "add-server at=10 bogus=1";
      "add-replica shard=0 at=5 at=6";
      "drop-replica shard=0 at=5 server=1";
    ]

(* ------------------------------------------------------------------ *)
(* Parser fuzzing: mutated canned inputs never raise, and generated
   plans round-trip through the textual format exactly. *)

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let alphabet = "=*,. \t\n#-+_:eEinfaxqd0123456789"

let never_raises name bases parse =
  QCheck.Test.make ~name ~count:500 (Fuzz.mutated ~alphabet bases) (fun s ->
      match parse s with Ok _ | Error _ -> true | exception e ->
        QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string e))

let fault_bases =
  List.filter_map
    (fun name ->
      Option.map Fault.Plan.to_string
        (Fault.Plan.canned name ~cores:8 ~warmup_us:20_000.0 ~duration_us:120_000.0))
    Fault.Plan.canned_names

let shard_bases = List.map (fun name -> Shardmgr.Plan.to_string (canned name)) Shardmgr.Plan.canned_names

let scenario_bases =
  [
    "default,p_large=2.5,get_ratio=0.9";
    "cold-tier,mem_fraction=0.5,ttl_ms=10";
    "diurnal,amplitude=0.3,period_ms=50";
    "bursts,on_ms=5,off_ms=20,factor=3";
    "ttl-churn,ttl_ms=10,sweep_ms=5";
    "scan-heavy,scan_ratio=0.1,scan_len=32,n_keys=1000";
  ]

let plan_gen =
  let open QCheck.Gen in
  let time = float_range 0.0 1e6 in
  let index = int_bound 8 in
  let event =
    oneof
      [
        map3 (fun at_us drain_us dual_us -> Shardmgr.Plan.Add_server { at_us; drain_us; dual_us })
          time time time;
        map3
          (fun server at_us (drain_us, dual_us) ->
            Shardmgr.Plan.Remove_server { server; at_us; drain_us; dual_us })
          index time (pair time time);
        map2 (fun shard at_us -> Shardmgr.Plan.Add_replica { shard; at_us }) index time;
        map2 (fun shard at_us -> Shardmgr.Plan.Drop_replica { shard; at_us }) index time;
      ]
  in
  list_size (int_range 0 4) event >|= fun events -> { Shardmgr.Plan.name = "gen"; events }

let round_trip =
  QCheck.Test.make ~name:"Shardmgr.Plan.of_string (to_string p) = p" ~count:500
    (QCheck.make ~print:Shardmgr.Plan.to_string plan_gen) (fun p ->
      QCheck.assume (Shardmgr.Plan.validate p = Ok ());
      match Shardmgr.Plan.of_string (Shardmgr.Plan.to_string p) with
      | Ok p' -> compare p p' = 0
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)

let fuzz_tests =
  [
    never_raises "Fault.Plan.of_string never raises" fault_bases (fun s -> Fault.Plan.of_string s);
    never_raises "Shardmgr.Plan.of_string never raises" shard_bases (fun s ->
        Shardmgr.Plan.of_string s);
    never_raises "Workload.Scenario.parse never raises" scenario_bases Workload.Scenario.parse;
    round_trip;
  ]

(* ------------------------------------------------------------------ *)
(* Table *)

let test_compile_rejects_impossible_steps () =
  let expect plan =
    match compile plan with
    | _ -> Alcotest.fail "impossible plan compiled"
    | exception Invalid_argument _ -> ()
  in
  (* removing a non-member *)
  expect
    {
      Shardmgr.Plan.name = "bad";
      events =
        [
          Shardmgr.Plan.Remove_server
            { server = 5; at_us = 50_000.0; drain_us = 500.0; dual_us = 2000.0 };
        ];
    };
  (* dropping a replica that does not exist *)
  expect
    {
      Shardmgr.Plan.name = "bad";
      events = [ Shardmgr.Plan.Drop_replica { shard = 0; at_us = 50_000.0 } ];
    };
  (* migration window past the run's end *)
  expect
    {
      Shardmgr.Plan.name = "bad";
      events =
        [
          Shardmgr.Plan.Add_server
            {
              at_us = cfg.Kvserver.Config.duration_us -. 1000.0;
              drain_us = 500.0;
              dual_us = 2000.0;
            };
        ];
    }

let test_range_routing () =
  (* A range map has no ring to add a server to: membership changes are
     a typed error, while replica events stay legal. *)
  (match compile ~policy:Shardmgr.Table.Range (canned "add-remove") with
  | exception Shardmgr.Table.Range_membership (Shardmgr.Plan.Add_server _) -> ()
  | exception Shardmgr.Table.Range_membership _ ->
      Alcotest.fail "expected the plan's first membership event"
  | _ -> Alcotest.fail "range table accepted add-server");
  let map =
    Kvcluster.Range_map.create ~servers:2
      ~n_keys:(Workload.Dataset.n_keys (dataset ())) ()
  in
  let bare = compile ~policy:Shardmgr.Table.Range (canned "noop") in
  for k = 0 to 499 do
    check int "no-op range table routes by key id"
      (Kvcluster.Range_map.lookup map k)
      (Shardmgr.Table.read_target bare ~epoch:0 k)
  done;
  let replicated = compile ~policy:Shardmgr.Table.Range (canned "replica-cycle") in
  check bool "replicas allocate fresh ids" true
    (Shardmgr.Table.n_servers replicated > 2);
  check bool "replica audit clean under range routing" true
    (Shardmgr.Protocol.ok (Shardmgr.Protocol.check ~seed:3 ~workload replicated))

let test_table_routing_invariants () =
  let table = compile (canned "add-remove") in
  let n = Shardmgr.Table.n_servers table in
  check int "add allocates one fresh id" 3 n;
  let epochs = Shardmgr.Table.epoch_count table in
  check bool "several epochs" true (epochs > 4);
  for e = 0 to epochs - 1 do
    let k = ref 1 in
    while !k < 1_000_000 do
      let tgt = Shardmgr.Table.read_target table ~epoch:e !k in
      let wt = Shardmgr.Table.write_targets table ~epoch:e !k in
      check bool "write set non-empty" true (wt <> []);
      check bool "read target is a write target" true (List.mem tgt wt);
      let fb = Shardmgr.Table.read_fallback table ~epoch:e !k in
      check bool "fallback in range" true (fb >= 0 && fb < n);
      k := (!k * 7) + 13
    done
  done;
  (* routes_to at an epoch's start time agrees with the offline views *)
  let k = 12_345 in
  for e = 0 to epochs - 1 do
    let now = Shardmgr.Table.epoch_start table e in
    check int "epoch_at inverts epoch_start" e
      (Shardmgr.Table.epoch_at table ~now);
    let wt = Shardmgr.Table.write_targets table ~epoch:e k in
    for s = 0 to n - 1 do
      check bool "put routing agrees" (List.mem s wt)
        (Shardmgr.Table.routes_to table ~now ~get:false ~key:k s);
      check bool "get routing agrees"
        (s = Shardmgr.Table.read_target table ~epoch:e k)
        (Shardmgr.Table.routes_to table ~now ~get:true ~key:k s)
    done
  done

let test_table_rates_follow_membership () =
  let table = compile (canned "add-remove") in
  (* server 2 (the fresh id) has rate 0 before its drain starts and
     positive traffic after its cutovers; server 1 drops to 0 after its
     own migration ends. *)
  let first = 0 and last = Shardmgr.Table.epoch_count table - 1 in
  check bool "fresh server parked at start" true
    ((Shardmgr.Table.epoch_rates table first).(2) = 0.0);
  check bool "fresh server serving at end" true
    ((Shardmgr.Table.epoch_rates table last).(2) > 0.0);
  check bool "removed server parked at end" true
    ((Shardmgr.Table.epoch_rates table last).(1) = 0.0);
  check bool "removed server serving at start" true
    ((Shardmgr.Table.epoch_rates table first).(1) > 0.0)

(* ------------------------------------------------------------------ *)
(* Manager *)

let test_manager_hysteresis () =
  let c =
    {
      Shardmgr.Manager.hi_p99_us = 50.0;
      lo_p99_us = 10.0;
      k_up = 2;
      k_down = 2;
      cooldown_us = 25.0;
      max_replicas = 1;
    }
  in
  let series =
    [
      (0.0, 60.0); (10.0, 70.0); (20.0, 5.0); (30.0, 5.0); (40.0, 5.0);
      (50.0, 5.0); (60.0, 5.0);
    ]
  in
  let events = Shardmgr.Manager.decide c ~shard:0 ~window_us:10.0 series in
  check bool "add after k_up hot windows, drop after cooldown + k_down cold"
    true
    (compare events
       [
         Shardmgr.Plan.Add_replica { shard = 0; at_us = 20.0 };
         Shardmgr.Plan.Drop_replica { shard = 0; at_us = 60.0 };
       ]
     = 0);
  (* max_replicas caps additions; a single hot window never triggers *)
  let all_hot = List.init 10 (fun i -> (float_of_int i *. 10.0, 99.0)) in
  let adds =
    Shardmgr.Manager.decide c ~shard:1 ~window_us:10.0 all_hot
    |> List.filter (function Shardmgr.Plan.Add_replica _ -> true | _ -> false)
  in
  check int "capped at max_replicas" 1 (List.length adds);
  check int "one hot window alone is not enough" 0
    (List.length (Shardmgr.Manager.decide c ~shard:0 ~window_us:10.0 [ (0.0, 99.0) ]));
  (* NaN windows (no samples) are skipped, not treated as cold *)
  let with_gap = [ (0.0, 60.0); (10.0, Float.nan); (20.0, 70.0) ] in
  check bool "nan does not break a hot streak" true
    (compare
       (Shardmgr.Manager.decide c ~shard:0 ~window_us:10.0 with_gap)
       [ Shardmgr.Plan.Add_replica { shard = 0; at_us = 30.0 } ]
     = 0)

(* ------------------------------------------------------------------ *)
(* Protocol audit (offline — no engines) *)

let test_protocol_conserves_keys () =
  List.iter
    (fun name ->
      let table = compile (canned name) in
      let p = Shardmgr.Protocol.check ~seed:3 ~workload table in
      check bool (name ^ ": audit clean") true (Shardmgr.Protocol.ok p);
      check int (name ^ ": nothing lost") 0 p.Shardmgr.Protocol.lost;
      check int (name ^ ": nothing duplicated") 0
        p.Shardmgr.Protocol.duplicated;
      check int (name ^ ": nothing stale") 0 p.Shardmgr.Protocol.stale;
      if name <> "noop" then
        check bool (name ^ ": some backlog transferred") true
          (p.Shardmgr.Protocol.transferred > 0))
    Shardmgr.Plan.canned_names

(* ------------------------------------------------------------------ *)
(* Protocol audit under crash faults *)

let replicated_plan =
  {
    Shardmgr.Plan.name = "hedge-replicas";
    events =
      [
        Shardmgr.Plan.Add_replica { shard = 0; at_us = 0.0 };
        Shardmgr.Plan.Add_replica { shard = 1; at_us = 0.0 };
      ];
  }

let kill_fault ~server ~kill ~recover =
  {
    Fault.Plan.name = "kill-server";
    events =
      (Fault.Plan.Kill_server { server; at_us = kill }
      ::
      (match recover with
      | None -> []
      | Some at_us -> [ Fault.Plan.Recover_server { server; at_us } ]));
  }

let test_protocol_crash_failover_lossless () =
  (* A replicated table survives a mirror crash: the kill wipes the
     mirror's store, GETs fall back to the owner's live copies, the
     recover resyncs the restarted mirror from the survivors (counted in
     [transferred]), and the audit stays key-lossless. *)
  let table = compile ~servers:2 replicated_plan in
  let dur = Shardmgr.Table.duration_us table in
  let fault = kill_fault ~server:2 ~kill:(0.4 *. dur) ~recover:(Some (0.8 *. dur)) in
  let p = Shardmgr.Protocol.check ~seed:3 ~fault ~workload table in
  check bool "crash audit clean" true (Shardmgr.Protocol.ok p);
  check int "nothing lost across the crash" 0 p.Shardmgr.Protocol.lost;
  check bool "recovery resynced the mirror" true
    (p.Shardmgr.Protocol.transferred > 0);
  (* An unrecovered mirror is still lossless — the owner holds every
     key — it just stays out of the read set. *)
  let q =
    Shardmgr.Protocol.check ~seed:3
      ~fault:(kill_fault ~server:2 ~kill:(0.4 *. dur) ~recover:None)
      ~workload table
  in
  check bool "unrecovered mirror still lossless" true (Shardmgr.Protocol.ok q)

let test_protocol_unreplicated_crash_loses_keys () =
  (* Killing a sole owner must be *visible*: with no replica or dual
     route holding the keys, the audit reports losses — proving the
     clean result above comes from failover, not from a blind check. *)
  let table = compile ~servers:2 (canned "noop") in
  let dur = Shardmgr.Table.duration_us table in
  let p =
    Shardmgr.Protocol.check ~seed:3
      ~fault:(kill_fault ~server:0 ~kill:(0.5 *. dur) ~recover:None)
      ~workload table
  in
  check bool "sole-owner crash loses keys" true (p.Shardmgr.Protocol.lost > 0);
  check bool "audit flags it" false (Shardmgr.Protocol.ok p);
  (* A kill naming a server outside the table is a caller bug. *)
  check bool "out-of-range server rejected" true
    (match
       Shardmgr.Protocol.check ~seed:3
         ~fault:(kill_fault ~server:99 ~kill:(0.5 *. dur) ~recover:None)
         ~workload table
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_read_owner_covers_spread () =
  (* In every epoch the owner read_owner names must hold the key: the
     spread target sits inside the owner's replica set, and without
     mirrors the owner *is* the target. *)
  let table = compile ~servers:2 replicated_plan in
  for epoch = 0 to Shardmgr.Table.epoch_count table - 1 do
    for k = 0 to 499 do
      let owner = Shardmgr.Table.read_owner table ~epoch k in
      let target = Shardmgr.Table.read_target table ~epoch k in
      check bool
        (Printf.sprintf "epoch %d key %d: target in owner's replica set"
           epoch k)
        true
        (Array.exists (fun s -> s = target) (Shardmgr.Table.replicas table ~epoch owner))
    done
  done;
  let bare = compile ~servers:2 (canned "noop") in
  for k = 0 to 499 do
    check int "no mirrors: owner = target"
      (Shardmgr.Table.read_target bare ~epoch:0 k)
      (Shardmgr.Table.read_owner bare ~epoch:0 k)
  done

(* ------------------------------------------------------------------ *)
(* End-to-end runs (quick scale) *)

let reshard_run ?(plan = canned "add-remove") ?(servers = 2) () =
  let table = compile ~servers plan in
  Shardmgr.Run.run ~seed:3 ~map:Minos.Par.map_list ~cfg
    ~design:Kvserver.Design.minos ~workload ~table ()

(* Every aggregate and per-shard field the static cluster produced,
   floats in exact hex. *)
let metrics_fingerprint (m : Kvcluster.Metrics.t) =
  let b = Buffer.create 1024 in
  let f x = Buffer.add_string b (Printf.sprintf "%h;" x) in
  let i x = Buffer.add_string b (Printf.sprintf "%d;" x) in
  i (Obs.Ledger.issued m.ledger);
  List.iter
    (fun leg -> i (Obs.Ledger.leg m.ledger leg))
    [ "served"; "net_dropped"; "rx_dropped"; "shed_small"; "shed_large"; "in_flight_end" ];
  f m.throughput_mops; f m.mean_us; f m.p50_us; f m.p99_us; f m.p999_us;
  f m.worst_shard_p99_us; f m.imbalance;
  Buffer.add_string b (string_of_bool m.stable);
  Array.iter f m.shard_share;
  Array.iter
    (fun (s : Kvserver.Metrics.t) ->
      Buffer.add_string b "|";
      f s.offered_mops; i s.issued; i s.completed; i s.served_total;
      f s.throughput_mops; f s.mean_us; f s.p50_us; f s.p95_us; f s.p99_us;
      f s.p999_us; f s.small_p99_us; f s.large_p99_us; f s.nic_tx_utilization;
      Buffer.add_string b (string_of_bool s.stable);
      Array.iter i s.per_core_ops; Array.iter i s.per_core_packets;
      i s.final_large_cores; f s.final_threshold; i s.in_flight_end;
      f s.mean_queue_wait_us; f s.mean_service_us; f s.mean_tx_wait_us;
      i s.net_dropped; i s.rx_dropped; i s.shed_small; i s.shed_large;
      i s.expired_misses)
    m.per_shard;
  Buffer.contents b

let test_noop_reproduces_static_cluster () =
  (* The tentpole's base case: under the no-op plan the paced, epoch-
     routed engines must reproduce the static cluster run byte for byte.
     The reference is that run's metrics as captured from the dedicated
     static-routing runner, NaNs included. *)
  let r = reshard_run ~plan:Shardmgr.Plan.empty () in
  let pinned =
    In_channel.with_open_bin "golden/noop_metrics.txt" In_channel.input_all
  in
  check Alcotest.string "metrics identical to the static cluster" pinned
    (metrics_fingerprint r.Shardmgr.Run.metrics);
  check bool "audit clean" true
    (Shardmgr.Protocol.ok r.Shardmgr.Run.protocol)

let test_reshard_preserves_accounting () =
  let r = reshard_run () in
  let m = r.Shardmgr.Run.metrics in
  check Alcotest.(result unit string) "every shard telescopes across reshard events"
    (Ok ()) (Kvcluster.Metrics.check m);
  check bool "audit clean" true (Shardmgr.Protocol.ok r.Shardmgr.Run.protocol);
  check bool "dual-phase fallback reads observed" true
    (r.Shardmgr.Run.protocol.Shardmgr.Protocol.fallback_reads >= 0);
  check bool "p99 timeline recorded" true (r.Shardmgr.Run.p99_series <> []);
  check bool "all engines issued something somewhere" true
    (Obs.Ledger.issued m.Kvcluster.Metrics.ledger > 0)

let reshard_front_end () =
  Minos.Reshard.run ~servers:2
    { Minos.Run.default with Minos.Run.scale; seed = 3; offered_mops = Some 4.0 }

let test_reshard_deterministic_across_jobs () =
  let go () =
    Obs.Json.to_string (Minos.Reshard.report.Minos.Run.to_json (reshard_front_end ()))
  in
  let a = with_jobs 1 go in
  let b = with_jobs 4 go in
  check Alcotest.string "jobs=1 vs jobs=4 byte-identical" a b

let test_reshard_check () =
  match Minos.Reshard.report.Minos.Run.check (reshard_front_end ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "Reshard.check: %s" msg

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "shardmgr"
    [
      ( "plan",
        [
          Alcotest.test_case "canned plans validate and round-trip" `Quick
            test_plan_round_trip;
          Alcotest.test_case "overlapping windows rejected" `Quick
            test_plan_rejects_overlapping_windows;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
        ] );
      ("parse fuzz", qsuite fuzz_tests);
      ( "table",
        [
          Alcotest.test_case "impossible steps rejected" `Quick
            test_compile_rejects_impossible_steps;
          Alcotest.test_case "routing invariants per epoch" `Quick
            test_table_routing_invariants;
          Alcotest.test_case "rates follow membership" `Quick
            test_table_rates_follow_membership;
          Alcotest.test_case "range routing" `Quick test_range_routing;
        ] );
      ( "manager",
        [ Alcotest.test_case "hysteresis + cooldown" `Quick test_manager_hysteresis ] );
      ( "protocol",
        [
          Alcotest.test_case "canned plans conserve every key" `Quick
            test_protocol_conserves_keys;
          Alcotest.test_case "mirror crash is key-lossless" `Quick
            test_protocol_crash_failover_lossless;
          Alcotest.test_case "sole-owner crash loses keys" `Quick
            test_protocol_unreplicated_crash_loses_keys;
          Alcotest.test_case "read_owner covers the spread" `Quick
            test_read_owner_covers_spread;
        ] );
      ( "reshard-run",
        [
          Alcotest.test_case "no-op plan reproduces the static cluster" `Slow
            test_noop_reproduces_static_cluster;
          Alcotest.test_case "mid-run add+remove preserves accounting" `Slow
            test_reshard_preserves_accounting;
          Alcotest.test_case "deterministic across MINOS_JOBS" `Slow
            test_reshard_deterministic_across_jobs;
          Alcotest.test_case "headline claims hold" `Slow test_reshard_check;
        ] );
    ]
