(* Hedged-cluster tests: configuration validation, the copy-level
   telescoping identity across the mode x route x fault grid, seeded
   determinism (including across MINOS_JOBS for the experiment driver),
   the router's dead-replica contract and its routing over the run's
   own table (one and two mirrors per shard), cancellation accounting for
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
let server ?(cores = 4) () =
  {
    Kvserver.Config.default with
    Kvserver.Config.cores;
    duration_us = 40_000.0;
    warmup_us = 10_000.0;
    epoch_us = 8_000.0;
  }

let policy ?(mode = Kvhedge.Config.Off) ?(route = Kvhedge.Config.Spread) ?detect_us () =
  { Kvhedge.Config.default with Kvhedge.Config.mode; route; detect_us }

(* The run's replicated table: mirror [k] of shard [s] is server
   [k * shards + s]. *)
let table ?(shards = 2) ?(mirrors = 1) ?(seed = 7) ?(offered_mops = 2.0)
    ?(workload = workload) () =
  Shardmgr.Table.compile ~seed ~servers:shards ~workload ~dataset ~duration_us:40_000.0
    ~offered_mops
    (Shardmgr.Plan.replicated ~shards ~mirrors)

(* Kill the mirror of shard 0 (server 2 with two shards) 30 % into the
   measured window, recover it at 80 % — the same canned shape
   Minos.Hedge uses. *)
let kill ?(server = 2) ?(at_us = 19_000.0) ?(recover_us = 34_000.0) () =
  {
    Fault.Plan.name = "kill-server";
    events =
      [
        Fault.Plan.Kill_server { server; at_us };
        Fault.Plan.Recover_server { server; at_us = recover_us };
      ];
  }

(* One hedged run: the router's accounting and the run (engine reports
   and the table's audit).  The table defaults to [table ~seed]. *)
let run_full ?plan ?(seed = 7) ?(server = server ()) ?(design = Kvserver.Design.minos)
    ?table:tbl ?setup policy =
  let tbl = match tbl with Some t -> t | None -> table ~seed () in
  Kvhedge.Cluster.run policy ?fault:plan ?setup ~seed ~server ~design ~workload tbl

let run ?plan ?seed ?server ?design ?table ?setup policy =
  fst (run_full ?plan ?seed ?server ?design ?table ?setup policy)

let engines_telescope (r : Shardmgr.Run.t) =
  Result.is_ok (Kvcluster.Metrics.check r.Shardmgr.Run.metrics)

let raises f = match f () with exception Invalid_argument _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_validate () =
  let ok c = check bool "valid" true (Result.is_ok (Kvhedge.Config.validate c)) in
  let bad c =
    check bool "invalid" true (Result.is_error (Kvhedge.Config.validate c))
  in
  ok Kvhedge.Config.default;
  ok (policy ());
  bad { (policy ()) with Kvhedge.Config.hedge_delay_us = 0.0 };
  bad { (policy ()) with Kvhedge.Config.hedge_quantile = 0.0 };
  bad { (policy ()) with Kvhedge.Config.hedge_quantile = 1.5 };
  bad { (policy ()) with Kvhedge.Config.min_delay_samples = 0 };
  bad { (policy ()) with Kvhedge.Config.detect_us = Some (-1.0) };
  bad { (policy ()) with Kvhedge.Config.detect_us = Some Float.nan };
  bad { (policy ()) with Kvhedge.Config.budget_capacity = -1.0 };
  (* the server configuration is checked where the runner builds the
     engines *)
  let refused server = check bool "server config refused" true (raises (fun () -> run ~server (policy ()))) in
  refused (server ~cores:1 ());
  refused { (server ()) with Kvserver.Config.warmup_us = 40_000.0 };
  refused { (server ()) with Kvserver.Config.epoch_us = 0.0 };
  refused { (server ()) with Kvserver.Config.rx_capacity = Some 0 };
  (* a membership change writes to two owners: not a table the router
     can route *)
  let reshard =
    Option.get (Shardmgr.Plan.canned "add-remove" ~warmup_us:10_000.0 ~duration_us:40_000.0)
  in
  let resharding =
    Shardmgr.Table.compile ~seed:7 ~servers:2 ~workload ~dataset ~duration_us:40_000.0
      ~offered_mops:2.0 reshard
  in
  check bool "a resharding table is refused" true
    (raises (fun () -> run ~table:resharding (policy ())));
  check int "the table counts every replica" 4 (Shardmgr.Table.n_servers (table ()));
  check bool "unset detector scales with the measured window" true
    (Kvhedge.Config.detect_us (policy ()) (server ()) = 0.15 *. 30_000.0);
  check bool "set detector wins" true
    (Kvhedge.Config.detect_us (policy ~detect_us:42.0 ()) (server ()) = 42.0)

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
                  let m, r = run_full ?plan ~design (policy ~mode ~route ()) in
                  check exact (label ^ ": telescopes") (Ok ())
                    (Obs.Ledger.check m.Kvhedge.Metrics.copies);
                  check bool (label ^ ": engine ledgers telescope") true
                    (engines_telescope r);
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
          let m, r = run_full ~plan:(kill ()) ~design (policy ~mode ()) in
          let engines = r.Shardmgr.Run.metrics.Kvcluster.Metrics.per_shard in
          check exact (label ^ ": router ledger telescopes") (Ok ())
            (Obs.Ledger.check m.Kvhedge.Metrics.copies);
          check bool (label ^ ": engine ledgers telescope") true (engines_telescope r);
          check int (label ^ ": one engine per server") 4 (Array.length engines);
          check bool (label ^ ": the killed server bounced arrivals") true
            (engines.(2).Kvserver.Metrics.net_dropped > 0);
          check bool (label ^ ": served work") true (copy m "served" > 0))
        [ Kvhedge.Config.Off; Kvhedge.Config.Hedged; Kvhedge.Config.Tied ])
    [ Kvserver.Design.sho; Kvserver.Design.hkh_ws ]

(* Overload: a shed watermark makes the engines refuse copies after the
   router has submitted them (at classification, not on arrival); an
   unhedged request whose only copy is shed fails, and every ledger
   still telescopes. *)
let test_shed_fails_request () =
  let server = { (server ()) with Kvserver.Config.shed_watermark = Some 2 } in
  let m, r = run_full ~server ~table:(table ~offered_mops:12.0 ()) (policy ()) in
  check bool "copies shed" true (copy m "shed" > 0);
  check bool "shed requests fail" true (request m "failed" > 0);
  check exact "telescopes" (Ok ())
    (Obs.Ledger.check m.Kvhedge.Metrics.copies);
  check bool "engine ledgers telescope" true (engines_telescope r);
  check exact "every request resolved once or pending" (Ok ())
    (Obs.Ledger.check m.Kvhedge.Metrics.requests)

let test_determinism () =
  let cfg = policy ~mode:Kvhedge.Config.Hedged ~route:Kvhedge.Config.P2c () in
  let a = run ~plan:(kill ()) cfg in
  let b = run ~plan:(kill ()) cfg in
  check bool "same (config, plan, seed): identical metrics" true
    (compare a b = 0);
  let c = run ~plan:(kill ()) ~seed:8 cfg in
  check bool "a different seed moves the run" true (compare a c <> 0)

(* ------------------------------------------------------------------ *)
(* The request mix is the run's, not the cached dataset's *)

let test_mix_follows_workload () =
  (* [dataset] was built (and cached) for the default 95:5 mix.  With one
     mirror and hedging off a GET sends one copy and a PUT one per
     replica, so copies per request = 2 - get_ratio. *)
  let copies_per_request get_ratio =
    let workload = { workload with Workload.Spec.get_ratio } in
    let m, _ =
      Kvhedge.Cluster.run (policy ()) ~seed:7 ~server:(server ()) ~design:Kvserver.Design.minos
        ~workload (table ~workload ())
    in
    float_of_int (Obs.Ledger.issued m.Kvhedge.Metrics.copies)
    /. float_of_int (Obs.Ledger.issued m.Kvhedge.Metrics.requests)
  in
  List.iter
    (fun get_ratio ->
      let got = copies_per_request get_ratio in
      check bool
        (Printf.sprintf "get_ratio %.2f: %.3f copies per request" get_ratio got)
        true
        (Float.abs (got -. (2.0 -. get_ratio)) < 0.02))
    [ 0.95; 0.5 ]

(* ------------------------------------------------------------------ *)
(* Routing: a detected-dead replica is never picked *)

let test_router_avoids_dead_replica () =
  (* Probed from inside the run, at instants scheduled on its
     simulation. *)
  let probes = ref 0 in
  let setup c =
    let at now f =
      Dsim.Sim.schedule_at (Kvhedge.Cluster.sim c) now (fun () ->
          incr probes;
          f ())
    in
    check int "servers probe" 4 (Array.length (Kvhedge.Cluster.alive_snapshot c));
    (* past kill (19 ms) + detect (1 ms) *)
    at 25_000.0 (fun () ->
        check bool "killed server not alive" false (Kvhedge.Cluster.alive_snapshot c).(2);
        check bool "killed server not routable" false
          (Kvhedge.Cluster.routable_snapshot c).(2);
        for _ = 1 to 200 do
          check int "p2c only ever picks the live replica" 0
            (Kvhedge.Cluster.pick_replica c ~shard:0 ~exclude:(-1))
        done;
        check int "excluding the last survivor leaves nothing" (-1)
          (Kvhedge.Cluster.pick_replica c ~shard:0 ~exclude:0));
    (* past recover (34 ms) *)
    at 36_000.0 (fun () ->
        check bool "recovered server alive" true (Kvhedge.Cluster.alive_snapshot c).(2);
        check bool "recovered server routable" true (Kvhedge.Cluster.routable_snapshot c).(2);
        let saw = Array.make 4 false in
        for _ = 1 to 200 do
          let s = Kvhedge.Cluster.pick_replica c ~shard:0 ~exclude:(-1) in
          check bool "pick stays inside shard 0's replica set" true (s = 0 || s = 2);
          saw.(s) <- true
        done;
        check bool "both replicas are picked again" true (saw.(0) && saw.(2)))
  in
  ignore
    (run ~plan:(kill ()) ~seed:11 ~setup
       (policy ~route:Kvhedge.Config.P2c ~detect_us:1_000.0 ()));
  check int "both probes ran" 2 !probes

(* Every copy goes where the run's table says the key lives: into the
   replica set of the key's read owner, in the epoch in force — the
   routing the run's key audit checks. *)
let test_copies_follow_the_table () =
  let tbl = table () in
  List.iter
    (fun (mode, route) ->
      let seen = ref 0 and stray = ref 0 in
      let setup c =
        Kvhedge.Cluster.on_submit c (fun ~key ~server ->
            incr seen;
            let epoch =
              Shardmgr.Table.epoch_at tbl ~now:(Dsim.Sim.now (Kvhedge.Cluster.sim c))
            in
            let owner = Shardmgr.Table.read_owner tbl ~epoch key in
            if not (Array.mem server (Shardmgr.Table.replicas tbl ~epoch owner)) then incr stray)
      in
      let label = Kvhedge.Config.mode_name mode ^ "+" ^ Kvhedge.Config.route_name route in
      ignore (run ~plan:(kill ()) ~table:tbl ~setup (policy ~mode ~route ()));
      check bool (label ^ ": copies submitted") true (!seen > 0);
      check int (label ^ ": copies outside the key's replica set") 0 !stray)
    [
      (Kvhedge.Config.Off, Kvhedge.Config.Spread);
      (Kvhedge.Config.Hedged, Kvhedge.Config.P2c);
      (Kvhedge.Config.Tied, Kvhedge.Config.Spread);
    ]

(* Three shards with two mirrors each (nine servers; shard 0 is
   servers 0, 3 and 6): kill shard 0's first mirror under hedged P2C. *)
let test_two_mirrors_under_kill () =
  let detect_us = 1_000.0 and at_us = 19_000.0 and recover_us = 34_000.0 in
  let blind = ref 0 and to_dead = ref 0 in
  let setup c =
    Kvhedge.Cluster.on_submit c (fun ~key:_ ~server ->
        let now = Dsim.Sim.now (Kvhedge.Cluster.sim c) in
        if now > at_us +. detect_us && now < recover_us then begin
          incr blind;
          if server = 3 then incr to_dead
        end)
  in
  let m, r =
    run_full
      ~plan:(kill ~server:3 ~at_us ~recover_us ())
      ~table:(table ~shards:3 ~mirrors:2 ())
      ~setup
      (policy ~mode:Kvhedge.Config.Hedged ~route:Kvhedge.Config.P2c ~detect_us ())
  in
  check exact "copies telescope" (Ok ()) (Obs.Ledger.check m.Kvhedge.Metrics.copies);
  check exact "requests telescope" (Ok ()) (Obs.Ledger.check m.Kvhedge.Metrics.requests);
  check exact "every engine's ledger telescopes" (Ok ())
    (Kvcluster.Metrics.check r.Shardmgr.Run.metrics);
  check int "nine engines" 9 (Array.length r.Shardmgr.Run.metrics.Kvcluster.Metrics.per_shard);
  check int "one kill" 1 m.Kvhedge.Metrics.server_killed;
  check int "one recover" 1 m.Kvhedge.Metrics.server_recovered;
  check bool "copies routed while the server was known dead" true (!blind > 0);
  check int "the dead replica is never picked after detection" 0 !to_dead;
  let audit = r.Shardmgr.Run.protocol in
  check bool "the run's table audits clean" true (Shardmgr.Protocol.ok audit);
  check bool "the recovery transfers keys" true (audit.Shardmgr.Protocol.transferred > 0)

(* ------------------------------------------------------------------ *)
(* Cancellation: losers leave through cancelled / hedged_wasted *)

let test_hedged_cancellation () =
  (* A mid-distribution quantile makes the delay short, so plenty of
     hedges fire and plenty of losers must be reaped. *)
  let cfg =
    {
      (policy ~mode:Kvhedge.Config.Hedged ()) with
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
  let m = run (policy ~mode:Kvhedge.Config.Tied ()) in
  check bool "ties issued" true (m.Kvhedge.Metrics.ties_issued > 0);
  check bool "tied losers cancelled" true (copy m "cancelled" > 0);
  check exact "telescopes" (Ok ())
    (Obs.Ledger.check m.Kvhedge.Metrics.copies)

(* ------------------------------------------------------------------ *)
(* Chaos SLO *)

let test_hedged_cuts_kill_tail () =
  let clean = run (policy ()) in
  let unhedged = run ~plan:(kill ()) (policy ()) in
  let hedged = run ~plan:(kill ()) (policy ~mode:Kvhedge.Config.Hedged ()) in
  check bool "unhedged tail degrades by the detector timeout" true
    (unhedged.Kvhedge.Metrics.p99_us > 10.0 *. clean.Kvhedge.Metrics.p99_us);
  check bool "hedged tail stays near fault-free" true
    (hedged.Kvhedge.Metrics.p99_us < 3.0 *. clean.Kvhedge.Metrics.p99_us);
  check bool "hedged beats unhedged under the crash" true
    (hedged.Kvhedge.Metrics.p99_us < unhedged.Kvhedge.Metrics.p99_us)

let test_failover_budget () =
  let cfg = policy ~detect_us:500.0 () in
  let granted = run ~plan:(kill ()) cfg in
  check bool "failovers granted" true (granted.Kvhedge.Metrics.failovers > 0);
  check int "no denials with a full bucket" 0
    granted.Kvhedge.Metrics.budget_exhausted;
  (* each failover spends one token: a bucket of three grants three *)
  let three =
    { cfg with Kvhedge.Config.budget_capacity = 3.0; budget_earn_per_request = 0.0 }
  in
  let m3 = run ~plan:(kill ()) three in
  check int "tokens spent, one per failover" 3 m3.Kvhedge.Metrics.failovers;
  check bool "the rest denied" true (m3.Kvhedge.Metrics.budget_exhausted > 0);
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
          Alcotest.test_case "mix follows the workload, not the dataset" `Quick
            test_mix_follows_workload;
        ] );
      ( "routing",
        [
          Alcotest.test_case "dead replica never picked" `Quick
            test_router_avoids_dead_replica;
          Alcotest.test_case "copies follow the run's table" `Quick
            test_copies_follow_the_table;
          Alcotest.test_case "3 shards x 2 mirrors under a kill" `Quick
            test_two_mirrors_under_kill;
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
