(* Hedged-cluster tests: configuration validation, the copy-level
   telescoping identity across the mode x route x fault grid, seeded
   determinism (including across MINOS_JOBS for the experiment driver),
   the router's dead-replica contract, cancellation accounting for
   hedged and tied backups, retry-budget denial under crash failover,
   and the chaos SLO itself — a hedged cluster's p99 under kill-server
   stays near fault-free while the unhedged tail degrades by the
   failure-detector timeout. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let exact = Alcotest.(result unit string)

(* Legs of the router's two ledgers. *)
let copy (m : Kvhedge.Metrics.t) = Obs.Ledger.leg m.Kvhedge.Metrics.copies
let request (m : Kvhedge.Metrics.t) = Obs.Ledger.leg m.Kvhedge.Metrics.requests

let with_jobs n f =
  Minos.Par.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Minos.Par.set_jobs None) f

let workload = Workload.Spec.default
let dataset = Minos.Experiment.dataset_for workload

(* 2 shards x 1 mirror (4 servers), 40 ms of simulated time: big enough
   for the kill window, the detector and the recovery to all land inside
   the measured region, small enough to keep the whole suite quick. *)
let tiny ?(shards = 2) ?(mirrors = 1) ?(cores = 4) ?(design = Kvserver.Design.minos)
    ?(mode = Kvhedge.Config.Off) ?(route = Kvhedge.Config.Spread) ?detect_us ()
    =
  {
    Kvhedge.Config.default with
    Kvhedge.Config.shards;
    mirrors;
    design;
    mode;
    route;
    detect_us;
    server =
      {
        Kvserver.Config.default with
        Kvserver.Config.cores;
        duration_us = 40_000.0;
        warmup_us = 10_000.0;
        epoch_us = 8_000.0;
      };
  }

(* Kill the mirror of shard 0 (server 2 in the k * shards + s layout)
   30 % into the measured window, recover it at 80 % — the same canned
   shape Minos.Hedge uses. *)
let kill ?(server = 2) ?(at_us = 19_000.0) ?(recover_us = 34_000.0) () =
  {
    Fault.Plan.name = "kill-server";
    events =
      [
        Fault.Plan.Kill_server { server; at_us };
        Fault.Plan.Recover_server { server; at_us = recover_us };
      ];
  }

let run ?plan ?(seed = 7) ?(offered_mops = 2.0) cfg =
  let c = Kvhedge.Cluster.create cfg ~dataset ~offered_mops ?plan ~seed () in
  Dsim.Sim.run (Kvhedge.Cluster.sim c)
    ~until:cfg.Kvhedge.Config.server.Kvserver.Config.duration_us;
  Kvhedge.Cluster.metrics c

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_validate () =
  let ok c = check bool "valid" true (Result.is_ok (Kvhedge.Config.validate c)) in
  let bad c =
    check bool "invalid" true (Result.is_error (Kvhedge.Config.validate c))
  in
  ok Kvhedge.Config.default;
  ok (tiny ());
  ok (tiny ~design:Kvserver.Design.hkh ());
  bad { (tiny ()) with Kvhedge.Config.shards = 0 };
  bad { (tiny ()) with Kvhedge.Config.mirrors = -1 };
  bad (tiny ~cores:1 ()) (* the server config is validated too *);
  bad { (tiny ()) with Kvhedge.Config.hedge_delay_us = 0.0 };
  bad { (tiny ()) with Kvhedge.Config.hedge_quantile = 0.0 };
  bad { (tiny ()) with Kvhedge.Config.hedge_quantile = 1.5 };
  bad { (tiny ()) with Kvhedge.Config.min_delay_samples = 0 };
  bad { (tiny ()) with Kvhedge.Config.detect_us = Some (-1.0) };
  bad { (tiny ()) with Kvhedge.Config.detect_us = Some Float.nan };
  let server = (tiny ()).Kvhedge.Config.server in
  bad
    {
      (tiny ()) with
      Kvhedge.Config.server = { server with Kvserver.Config.warmup_us = 40_000.0 };
    };
  bad
    {
      (tiny ()) with
      Kvhedge.Config.server = { server with Kvserver.Config.epoch_us = 0.0 };
    };
  bad
    {
      (tiny ()) with
      Kvhedge.Config.server = { server with Kvserver.Config.rx_capacity = Some 0 };
    };
  bad { (tiny ()) with Kvhedge.Config.budget_capacity = -1.0 };
  check int "servers counts every replica" 4 (Kvhedge.Config.servers (tiny ()));
  check bool "unset detector scales with the measured window" true
    (Kvhedge.Config.detect_us (tiny ()) = 0.15 *. 30_000.0);
  check bool "set detector wins" true
    (Kvhedge.Config.detect_us (tiny ~detect_us:42.0 ()) = 42.0)

(* The run record names each run's mode and route: every name must lead
   back to exactly the policy that printed it. *)
let test_names_round_trip () =
  let back name_of all name = List.filter (fun x -> name_of x = name) all in
  let modes = [ Kvhedge.Config.Off; Kvhedge.Config.Hedged; Kvhedge.Config.Tied ] in
  List.iter
    (fun m ->
      check bool "mode round-trips" true
        (back Kvhedge.Config.mode_name modes (Kvhedge.Config.mode_name m) = [ m ]))
    modes;
  let routes = [ Kvhedge.Config.Spread; Kvhedge.Config.P2c ] in
  List.iter
    (fun r ->
      check bool "route round-trips" true
        (back Kvhedge.Config.route_name routes (Kvhedge.Config.route_name r) = [ r ]))
    routes

(* ------------------------------------------------------------------ *)
(* Accounting: every copy resolves into exactly one telescoping leg *)

let test_telescoping_grid () =
  List.iter
    (fun design ->
      List.iter
        (fun mode ->
          List.iter
            (fun route ->
              List.iter
                (fun plan ->
                  let label =
                    Printf.sprintf "%s+%s+%s/%s"
                      (Kvserver.Design.name design)
                      (Kvhedge.Config.mode_name mode)
                      (Kvhedge.Config.route_name route)
                      (match plan with None -> "none" | Some _ -> "kill")
                  in
                  let m = run ?plan (tiny ~design ~mode ~route ()) in
                  check exact (label ^ ": telescopes") (Ok ())
                    (Obs.Ledger.check m.Kvhedge.Metrics.copies);
                  check bool (label ^ ": engine ledgers telescope") true
                    (Kvhedge.Metrics.engines_telescope m);
                  check exact (label ^ ": requests account") (Ok ())
                    (Obs.Ledger.check m.Kvhedge.Metrics.requests);
                  check bool (label ^ ": served work") true
                    (copy m "served" > 0);
                  match plan with
                  | None ->
                      check int (label ^ ": no kill") 0
                        m.Kvhedge.Metrics.server_killed
                  | Some _ ->
                      check int (label ^ ": one kill") 1
                        m.Kvhedge.Metrics.server_killed;
                      check int (label ^ ": one recover") 1
                        m.Kvhedge.Metrics.server_recovered;
                      check bool (label ^ ": the crash dropped copies") true
                        (copy m "net_dropped" > 0))
                [ None; Some (kill ()) ])
            [ Kvhedge.Config.Spread; Kvhedge.Config.P2c ])
        [ Kvhedge.Config.Off; Kvhedge.Config.Hedged; Kvhedge.Config.Tied ])
    [ Kvserver.Design.minos; Kvserver.Design.hkh ]

(* The servers are real engines, so any registered design runs behind
   the router; the grid above covers Minos and HKH, this covers SHO and
   HKH+WS.  Under the kill plan both the router's copy ledger and every
   engine's request ledger must telescope, and the killed server's
   engine must have bounced arrivals off its dead NIC. *)
let test_every_design_under_kill () =
  List.iter
    (fun design ->
      List.iter
        (fun mode ->
          let label =
            Kvserver.Design.name design ^ "+" ^ Kvhedge.Config.mode_name mode
          in
          let m = run ~plan:(kill ()) (tiny ~design ~mode ()) in
          check exact (label ^ ": router ledger telescopes") (Ok ())
            (Obs.Ledger.check m.Kvhedge.Metrics.copies);
          check bool (label ^ ": engine ledgers telescope") true
            (Kvhedge.Metrics.engines_telescope m);
          check int (label ^ ": one engine per server") 4
            (Array.length m.Kvhedge.Metrics.engines);
          check bool (label ^ ": the killed server bounced arrivals") true
            (m.Kvhedge.Metrics.engines.(2).Kvserver.Metrics.net_dropped > 0);
          check bool (label ^ ": served work") true (copy m "served" > 0))
        [ Kvhedge.Config.Off; Kvhedge.Config.Hedged; Kvhedge.Config.Tied ])
    [ Kvserver.Design.sho; Kvserver.Design.hkh_ws ]

(* Overload: a shed watermark makes the engines refuse copies after the
   router has submitted them (at classification, not on arrival); an
   unhedged request whose only copy is shed fails, and every ledger
   still telescopes. *)
let test_shed_fails_request () =
  let cfg = tiny () in
  let server = { cfg.Kvhedge.Config.server with Kvserver.Config.shed_watermark = Some 2 } in
  let m = run ~offered_mops:12.0 { cfg with Kvhedge.Config.server = server } in
  check bool "copies shed" true (copy m "shed" > 0);
  check bool "shed requests fail" true (request m "failed" > 0);
  check exact "telescopes" (Ok ())
    (Obs.Ledger.check m.Kvhedge.Metrics.copies);
  check bool "engine ledgers telescope" true (Kvhedge.Metrics.engines_telescope m);
  check exact "every request resolved once or pending" (Ok ())
    (Obs.Ledger.check m.Kvhedge.Metrics.requests)

let test_determinism () =
  let cfg = tiny ~mode:Kvhedge.Config.Hedged ~route:Kvhedge.Config.P2c () in
  let a = run ~plan:(kill ()) cfg in
  let b = run ~plan:(kill ()) cfg in
  check bool "same (config, plan, seed): identical metrics" true
    (compare a b = 0);
  let c = run ~plan:(kill ()) ~seed:8 cfg in
  check bool "a different seed moves the run" true (compare a c <> 0)

(* ------------------------------------------------------------------ *)
(* Routing: a detected-dead replica is never picked *)

let test_router_avoids_dead_replica () =
  let cfg =
    tiny ~route:Kvhedge.Config.P2c ~detect_us:1_000.0 ()
  in
  let c =
    Kvhedge.Cluster.create cfg ~dataset ~offered_mops:2.0 ~plan:(kill ())
      ~seed:11 ()
  in
  let sim = Kvhedge.Cluster.sim c in
  check int "servers probe" 4 (Kvhedge.Cluster.servers c);
  Dsim.Sim.run sim ~until:25_000.0;
  (* past kill (19 ms) + detect (1 ms) *)
  check bool "killed server not alive" false
    (Kvhedge.Cluster.alive_snapshot c).(2);
  check bool "killed server not routable" false
    (Kvhedge.Cluster.routable_snapshot c).(2);
  for _ = 1 to 200 do
    check int "p2c only ever picks the live replica" 0
      (Kvhedge.Cluster.pick_replica c ~shard:0 ~exclude:(-1))
  done;
  check int "excluding the last survivor leaves nothing" (-1)
    (Kvhedge.Cluster.pick_replica c ~shard:0 ~exclude:0);
  Dsim.Sim.run sim ~until:36_000.0;
  (* past recover (34 ms) *)
  check bool "recovered server alive" true
    (Kvhedge.Cluster.alive_snapshot c).(2);
  check bool "recovered server routable" true
    (Kvhedge.Cluster.routable_snapshot c).(2);
  let saw = Array.make 4 false in
  for _ = 1 to 200 do
    let s = Kvhedge.Cluster.pick_replica c ~shard:0 ~exclude:(-1) in
    check bool "pick stays inside shard 0's replica set" true (s = 0 || s = 2);
    saw.(s) <- true
  done;
  check bool "both replicas are picked again" true (saw.(0) && saw.(2))

(* ------------------------------------------------------------------ *)
(* Cancellation: losers leave through cancelled / hedged_wasted *)

let test_hedged_cancellation () =
  (* A mid-distribution quantile makes the delay short, so plenty of
     hedges fire and plenty of losers must be reaped. *)
  let cfg =
    {
      (tiny ~mode:Kvhedge.Config.Hedged ()) with
      Kvhedge.Config.hedge_delay_us = 2.0;
      hedge_quantile = 0.5;
    }
  in
  let m = run cfg in
  check bool "hedges issued" true (m.Kvhedge.Metrics.hedges_issued > 0);
  check bool "losers reaped" true
    (Obs.Ledger.sum m.Kvhedge.Metrics.copies [ "cancelled"; "hedged_wasted" ] > 0);
  check bool "delay re-estimated each epoch" true
    (m.Kvhedge.Metrics.hedge_delay_series <> []);
  check bool "final delay is positive" true
    (m.Kvhedge.Metrics.hedge_delay_final_us > 0.0);
  check exact "telescopes" (Ok ())
    (Obs.Ledger.check m.Kvhedge.Metrics.copies)

let test_tied_cancellation () =
  let m = run (tiny ~mode:Kvhedge.Config.Tied ()) in
  check bool "ties issued" true (m.Kvhedge.Metrics.ties_issued > 0);
  check bool "tied losers cancelled" true (copy m "cancelled" > 0);
  check exact "telescopes" (Ok ())
    (Obs.Ledger.check m.Kvhedge.Metrics.copies)

(* ------------------------------------------------------------------ *)
(* Chaos SLO *)

let test_hedged_cuts_kill_tail () =
  let clean = run (tiny ()) in
  let unhedged = run ~plan:(kill ()) (tiny ()) in
  let hedged = run ~plan:(kill ()) (tiny ~mode:Kvhedge.Config.Hedged ()) in
  check bool "unhedged tail degrades by the detector timeout" true
    (unhedged.Kvhedge.Metrics.p99_us > 10.0 *. clean.Kvhedge.Metrics.p99_us);
  check bool "hedged tail stays near fault-free" true
    (hedged.Kvhedge.Metrics.p99_us < 3.0 *. clean.Kvhedge.Metrics.p99_us);
  check bool "hedged beats unhedged under the crash" true
    (hedged.Kvhedge.Metrics.p99_us < unhedged.Kvhedge.Metrics.p99_us)

let test_failover_budget () =
  let cfg = tiny ~detect_us:500.0 () in
  let granted = run ~plan:(kill ()) cfg in
  check bool "failovers granted" true (granted.Kvhedge.Metrics.failovers > 0);
  check int "no denials with a full bucket" 0
    granted.Kvhedge.Metrics.budget_exhausted;
  check bool "tokens spent" true (granted.Kvhedge.Metrics.budget_spent > 0.0);
  let starved =
    {
      cfg with
      Kvhedge.Config.budget_capacity = 0.0;
      budget_earn_per_request = 0.0;
    }
  in
  let m = run ~plan:(kill ()) starved in
  check int "no failovers without budget" 0 m.Kvhedge.Metrics.failovers;
  check bool "denials counted" true (m.Kvhedge.Metrics.budget_exhausted > 0);
  check bool "denied requests fail" true (request m "failed" > 0);
  check exact "telescopes" (Ok ())
    (Obs.Ledger.check m.Kvhedge.Metrics.copies)

(* ------------------------------------------------------------------ *)
(* Experiment driver: the nine-variant grid, jobs-invariant, audited *)

let test_experiment_grid () =
  (* [tiny ()]'s topology and server timing, through the runner's own
     configuration. *)
  let run =
    {
      Minos.Run.default with
      Minos.Run.scale =
        {
          Minos.Experiment.quick_scale with
          duration_us = 40_000.0;
          warmup_us = 10_000.0;
          epoch_us = 8_000.0;
        };
      seed = 3;
      offered_mops = Some 2.0;
    }
  in
  let go () = Minos.Hedge.run ~shards:2 ~cores:4 run in
  let t1 = with_jobs 1 go in
  let t4 = with_jobs 4 go in
  check bool "byte-identical at any MINOS_JOBS" true (compare t1 t4 = 0);
  check int "nine variants" 9 (List.length t1.Minos.Hedge.entries);
  List.iter
    (fun (e : Minos.Hedge.entry) ->
      check exact (e.label ^ ": telescopes") (Ok ())
        (Obs.Ledger.check e.metrics.Kvhedge.Metrics.copies);
      check exact (e.label ^ ": requests account") (Ok ())
        (Obs.Ledger.check e.metrics.Kvhedge.Metrics.requests))
    t1.Minos.Hedge.entries;
  check bool "hedge tax priced" true (t1.Minos.Hedge.hedge_tax >= 0.0);
  (match Minos.Hedge.report.Minos.Run.check t1 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "hedge check: %s" msg);
  check int "the canned crash kills the first mirror" t1.Minos.Hedge.shards
    t1.Minos.Hedge.killed_server;
  check bool "kill window inside the measured region" true
    (t1.Minos.Hedge.kill_at_us > 10_000.0
    && t1.Minos.Hedge.recover_at_us < 40_000.0
    && t1.Minos.Hedge.kill_at_us < t1.Minos.Hedge.recover_at_us);
  check bool "crash audit is key-lossless" true
    (Shardmgr.Protocol.ok t1.Minos.Hedge.audit);
  check bool "recovery resynced the mirror" true
    (t1.Minos.Hedge.audit.Shardmgr.Protocol.transferred > 0);
  check bool "tail-cutting needs a replica: mirrors=0 rejected" true
    (match Minos.Hedge.run ~shards:2 ~cores:4 ~mirrors:0 run with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "hedge"
    [
      ( "config",
        [
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "names round-trip" `Quick test_names_round_trip;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "telescoping grid" `Quick test_telescoping_grid;
          Alcotest.test_case "every design under the kill plan" `Quick
            test_every_design_under_kill;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "a shed copy fails its request" `Quick
            test_shed_fails_request;
        ] );
      ( "routing",
        [
          Alcotest.test_case "dead replica never picked" `Quick
            test_router_avoids_dead_replica;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "hedged losers reaped" `Quick
            test_hedged_cancellation;
          Alcotest.test_case "tied losers cancelled" `Quick
            test_tied_cancellation;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "hedged cuts the kill tail" `Quick
            test_hedged_cuts_kill_tail;
          Alcotest.test_case "failover spends the retry budget" `Quick
            test_failover_budget;
        ] );
      ( "experiment",
        [ Alcotest.test_case "nine-variant grid" `Quick test_experiment_grid ] );
    ]
