(* Tests for the fault-injection subsystem: the plan language and its
   parser, the seeded injector's determinism, the watchdog's hysteresis,
   and the end-to-end chaos contracts — byte-identical reruns at a fixed
   (plan, seed) and exact loss accounting under overload. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Plan: validation and parser round-trip *)

let stall ?(core = 1) ?(from_us = 0.0) ?(until_us = 100.0) ?(factor = 2.0) () =
  Fault.Plan.Core_stall { core; from_us; until_us; factor }

let plan events = { Fault.Plan.name = "test"; events }

let test_plan_validate () =
  let ok p = check bool "valid" true (Result.is_ok (Fault.Plan.validate p)) in
  let bad p = check bool "invalid" true (Result.is_error (Fault.Plan.validate p)) in
  ok (plan [ stall () ]);
  ok Fault.Plan.empty;
  bad (plan [ stall ~factor:0.5 () ]);
  bad (plan [ stall ~from_us:10.0 ~until_us:10.0 () ]);
  bad
    (plan
       [
         Fault.Plan.Net_fault
           {
             queue = Fault.Plan.all;
             from_us = 0.0;
             until_us = 100.0;
             drop = 0.6;
             dup = 0.5;
             reorder = 0.0;
             reorder_max_us = 10.0;
           };
       ]);
  bad
    (plan
       [
         Fault.Plan.Ring_squeeze
           { queue = 0; from_us = 0.0; until_us = 100.0; capacity = 0 };
       ])

let test_plan_canned_names () =
  List.iter
    (fun name ->
      match
        Fault.Plan.canned name ~cores:8 ~warmup_us:1000.0 ~duration_us:10000.0
      with
      | Some p ->
          check string "canned plan keeps its name" name p.Fault.Plan.name;
          check bool "canned plan validates" true
            (Result.is_ok (Fault.Plan.validate p))
      | None -> Alcotest.failf "canned plan %s missing" name)
    Fault.Plan.canned_names;
  check bool "unknown canned name" true
    (Fault.Plan.canned "no-such-plan" ~cores:8 ~warmup_us:0.0
       ~duration_us:1000.0
    = None)

let test_plan_round_trip () =
  (* to_string |> of_string must reproduce every canned plan exactly:
     the rendering is the on-disk format `minos chaos --fault-plan`
     loads. *)
  List.iter
    (fun name ->
      let p =
        Option.get
          (Fault.Plan.canned name ~cores:8 ~warmup_us:1000.0
             ~duration_us:10000.0)
      in
      let rendered = Fault.Plan.to_string p in
      match Fault.Plan.of_string ~name rendered with
      | Error e -> Alcotest.failf "%s: reparse failed: %s" name e
      | Ok p' ->
          check string
            (name ^ ": round-trip is a fixed point")
            rendered (Fault.Plan.to_string p');
          check int
            (name ^ ": event count survives")
            (List.length p.Fault.Plan.events)
            (List.length p'.Fault.Plan.events))
    Fault.Plan.canned_names

let test_plan_parse_forms () =
  let src =
    "# comment\n\
     core-stall core=* from=0 until=end factor=50\n\
     net queue=2 from=100 until=200 drop=0.1 dup=0 reorder=0.05 \
     reorder-max=30\n\
     squeeze queue=* from=0 until=end capacity=256\n\
     ctrl-delay from=800 until=end\n\
     ctrl-corrupt from=500 until=800 mode=x3.5\n\
     ctrl-corrupt from=100 until=200 mode=nan\n"
  in
  match Fault.Plan.of_string ~name:"forms" src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
      check int "six events" 6 (List.length p.Fault.Plan.events);
      (match List.hd p.Fault.Plan.events with
      | Fault.Plan.Core_stall { core; until_us; _ } ->
          check int "core wildcard" Fault.Plan.all core;
          check bool "until=end is infinity" true (until_us = infinity)
      | _ -> Alcotest.fail "first event is not a core stall");
      check bool "garbage rejected" true
        (Result.is_error (Fault.Plan.of_string "not an event"))

(* Mutated plans: the parser never raises, and every plan it accepts
   renders back to itself exactly (floats included: a time such as
   1.00000000000001 needs more than [string_of_float]'s 12 digits). *)
let plan_fuzz =
  let bases =
    "plan exact\nctrl-delay from=1.00000000000001 until=2\nnet queue=3 from=0.1 \
     until=end drop=0.30000000000000004 reorder=0.2 reorder-max=7.5\n\
     ctrl-corrupt from=1 until=2 mode=x0.1\n"
    :: List.filter_map
         (fun name ->
           Option.map Fault.Plan.to_string
             (Fault.Plan.canned name ~cores:8 ~warmup_us:20_000.0
                ~duration_us:120_000.0))
         Fault.Plan.canned_names
  in
  QCheck.Test.make ~name:"of_string never raises, Ok plans round-trip" ~count:500
    (Fuzz.mutated ~alphabet:"=*. \t\n#-_:eEinfaxrl0123456789" bases)
    (fun src ->
      match Fault.Plan.of_string src with
      | Error _ -> true
      | Ok p -> (
          match Fault.Plan.of_string ~name:"other" (Fault.Plan.to_string p) with
          | Ok p' -> compare p p' = 0
          | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)
      | exception e ->
          QCheck.Test.fail_reportf "%S raised %s" src (Printexc.to_string e))

let test_plan_kill_recover () =
  (* The crash events: validation bounds, parse forms, and the textual
     round-trip the hedge bench's canned plan relies on. *)
  let ok p = check bool "valid" true (Result.is_ok (Fault.Plan.validate p)) in
  let bad p =
    check bool "invalid" true (Result.is_error (Fault.Plan.validate p))
  in
  let p =
    plan
      [
        Fault.Plan.Kill_server { server = 2; at_us = 700.0 };
        Fault.Plan.Recover_server { server = 2; at_us = 1100.0 };
      ]
  in
  ok p;
  ok (plan [ Fault.Plan.Kill_server { server = Fault.Plan.all; at_us = 0.0 } ]);
  bad (plan [ Fault.Plan.Kill_server { server = -2; at_us = 0.0 } ]);
  bad (plan [ Fault.Plan.Kill_server { server = 0; at_us = -1.0 } ]);
  bad (plan [ Fault.Plan.Recover_server { server = 0; at_us = nan } ]);
  let rendered = Fault.Plan.to_string p in
  (match Fault.Plan.of_string ~name:"test" rendered with
  | Error e -> Alcotest.failf "kill plan does not re-parse: %s" e
  | Ok p' ->
      check string "kill/recover round-trip is a fixed point" rendered
        (Fault.Plan.to_string p'));
  match
    Fault.Plan.of_string ~name:"k"
      "kill-server server=* at=500\nrecover-server server=1 at=900\n"
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p -> (
      match p.Fault.Plan.events with
      | [ Fault.Plan.Kill_server { server; at_us } ; Fault.Plan.Recover_server _ ] ->
          check int "server wildcard" Fault.Plan.all server;
          check bool "instant parsed" true (at_us = 500.0)
      | _ -> Alcotest.fail "unexpected event shapes")

let test_plan_key_errors () =
  (* A key the event does not take, or a key given twice, is refused by
     name instead of being ignored or silently first-wins. *)
  let refused src key =
    match Fault.Plan.of_string src with
    | Ok _ -> Alcotest.failf "accepted %S" src
    | Error msg ->
        let has sub =
          let n = String.length sub and m = String.length msg in
          let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
          go 0
        in
        check bool (Printf.sprintf "%S names %s" msg key) true (has ("'" ^ key ^ "'"))
  in
  refused "kill-server server=2 at=5 bogus=1" "bogus";
  refused "kill-server server=2 at=5 at=6" "at";
  refused "core-stall core=1 from=0 until=10 queue=2" "queue";
  refused "net from=0 until=10 drop=0.1 drop=0.2" "drop";
  refused "ctrl-delay from=0 until=10 mode=nan" "mode"

(* ------------------------------------------------------------------ *)
(* Inject: seeded determinism and window semantics *)

let loss_plan =
  plan
    [
      Fault.Plan.Net_fault
        {
          queue = Fault.Plan.all;
          from_us = 100.0;
          until_us = 1000.0;
          drop = 0.3;
          dup = 0.2;
          reorder = 0.1;
          reorder_max_us = 50.0;
        };
    ]

let fates inj ~n ~now =
  List.init n (fun i ->
      Fault.Inject.fate inj ~queue:(i mod 4) ~now)

let test_inject_fate_determinism () =
  let a = Fault.Inject.create ~seed:7 loss_plan in
  let b = Fault.Inject.create ~seed:7 loss_plan in
  check bool "same (plan, seed): same fates" true
    (fates a ~n:1000 ~now:500.0 = fates b ~n:1000 ~now:500.0);
  let c = Fault.Inject.create ~seed:8 loss_plan in
  check bool "different seed: different fates" true
    (fates a ~n:1000 ~now:500.0 <> fates c ~n:1000 ~now:500.0)

let test_inject_fate_outside_window () =
  (* Queries outside any net window are Pass and consume no randomness:
     the stream an in-window consumer sees must not depend on how many
     healthy requests preceded it. *)
  let a = Fault.Inject.create ~seed:7 loss_plan in
  let b = Fault.Inject.create ~seed:7 loss_plan in
  List.iter
    (fun f -> check bool "healthy fate" true (f = Fault.Inject.Pass))
    (fates a ~n:100 ~now:50.0);
  check bool "out-of-window queries draw nothing" true
    (fates a ~n:100 ~now:500.0 = fates b ~n:100 ~now:500.0)

let test_inject_slowdown_windows () =
  let p =
    plan [ stall ~core:1 ~from_us:100.0 ~until_us:200.0 ~factor:50.0 () ]
  in
  let inj = Fault.Inject.create ~seed:1 p in
  let f = Alcotest.float 1e-9 in
  check f "inside window" 50.0 (Fault.Inject.slowdown inj ~core:1 ~now:150.0);
  check f "other core" 1.0 (Fault.Inject.slowdown inj ~core:0 ~now:150.0);
  check f "before window" 1.0 (Fault.Inject.slowdown inj ~core:1 ~now:50.0);
  check f "window is half-open" 1.0
    (Fault.Inject.slowdown inj ~core:1 ~now:200.0);
  check f "stall end inside" 200.0
    (Fault.Inject.stall_end inj ~core:1 ~now:150.0);
  check f "stall end outside is now" 42.0
    (Fault.Inject.stall_end inj ~core:1 ~now:42.0)

let test_inject_rx_capacity_and_ctrl () =
  let p =
    plan
      [
        Fault.Plan.Ring_squeeze
          { queue = Fault.Plan.all; from_us = 100.0; until_us = 200.0; capacity = 7 };
        Fault.Plan.Ctrl_delay { from_us = 300.0; until_us = 400.0 };
        Fault.Plan.Ctrl_corrupt
          { from_us = 500.0; until_us = 600.0; mode = Fault.Plan.Nan };
        Fault.Plan.Ctrl_corrupt
          { from_us = 600.0; until_us = 700.0; mode = Fault.Plan.Scale 3.0 };
      ]
  in
  let inj = Fault.Inject.create ~seed:1 p in
  check int "squeezed" 7 (Fault.Inject.rx_capacity inj ~queue:3 ~now:150.0);
  check int "unconstrained" max_int
    (Fault.Inject.rx_capacity inj ~queue:3 ~now:250.0);
  check bool "ctrl delayed inside" true (Fault.Inject.ctrl_delayed inj ~now:350.0);
  check bool "ctrl live outside" false (Fault.Inject.ctrl_delayed inj ~now:450.0);
  check bool "nan corruption" true
    (Float.is_nan (Fault.Inject.corrupt_threshold inj ~now:550.0 128.0));
  check (Alcotest.float 1e-9) "scale corruption" 384.0
    (Fault.Inject.corrupt_threshold inj ~now:650.0 128.0);
  check (Alcotest.float 1e-9) "identity outside" 128.0
    (Fault.Inject.corrupt_threshold inj ~now:750.0 128.0)

let test_inject_server_dead_windows () =
  (* A kill window opens at the kill instant and closes at the earliest
     matching recover (never, when unmatched); wildcard kills cover
     every server; [dead_windows] exposes the compiled pairing. *)
  let p =
    plan
      [
        Fault.Plan.Kill_server { server = 2; at_us = 700.0 };
        Fault.Plan.Recover_server { server = 2; at_us = 1100.0 };
        Fault.Plan.Kill_server { server = 0; at_us = 400.0 };
      ]
  in
  let inj = Fault.Inject.create ~seed:1 p in
  let dead s now = Fault.Inject.server_dead inj ~server:s ~now in
  check bool "before the kill" false (dead 2 600.0);
  check bool "the kill instant opens the window" true (dead 2 700.0);
  check bool "inside the window" true (dead 2 900.0);
  check bool "the recover instant closes it" false (dead 2 1100.0);
  check bool "other servers unaffected" false (dead 1 900.0);
  check bool "unmatched kill is forever" true (dead 0 1.0e12);
  let windows = List.sort compare (Fault.Inject.dead_windows inj) in
  check bool "compiled windows pair kills with recovers" true
    (windows = [ (0, 400.0, infinity); (2, 700.0, 1100.0) ]);
  (* Wildcard: one kill event covers every server id. *)
  let w =
    Fault.Inject.create ~seed:1
      (plan [ Fault.Plan.Kill_server { server = Fault.Plan.all; at_us = 10.0 } ])
  in
  check bool "wildcard kills server 0" true
    (Fault.Inject.server_dead w ~server:0 ~now:10.0);
  check bool "wildcard kills server 7" true
    (Fault.Inject.server_dead w ~server:7 ~now:10.0);
  check bool "wildcard window in dead_windows" true
    (Fault.Inject.dead_windows w = [ (Fault.Plan.all, 10.0, infinity) ])

(* ------------------------------------------------------------------ *)
(* Watchdog: hysteresis of exclusion and readmission *)

let epoch wd ~sick =
  (* Healthy cores serve 1000 ops/epoch with shallow queues; the sick
     core serves nothing and its queue is backed up. *)
  let ops = Array.make 4 0 in
  let cum = Array.make 4 0 in
  fun () ->
    Array.iteri (fun i c -> cum.(i) <- c + (if i = 1 && sick () then 0 else 1000)) cum;
    Array.blit cum 0 ops 0 4;
    Kvserver.Watchdog.observe wd ~ops
      ~depth:(fun c -> if c = 1 && sick () then 500 else 3)

let test_watchdog_condemns_after_hysteresis () =
  let wd = Kvserver.Watchdog.create ~cores:4 () in
  let tick = epoch wd ~sick:(fun () -> true) in
  check bool "first sick epoch: no change" true (tick () = Kvserver.Watchdog.No_change);
  (match tick () with
  | Kvserver.Watchdog.Exclude c -> check int "condemned core" 1 c
  | _ -> Alcotest.fail "second sick epoch should condemn");
  check int "excluded" 1 (Kvserver.Watchdog.excluded wd)

let test_watchdog_readmits_on_probation () =
  let wd = Kvserver.Watchdog.create ~forgive_after:3 ~cores:4 () in
  let sick = ref true in
  let tick = epoch wd ~sick:(fun () -> !sick) in
  ignore (tick ());
  ignore (tick ());
  check int "excluded" 1 (Kvserver.Watchdog.excluded wd);
  sick := false;
  ignore (tick ());
  ignore (tick ());
  (match tick () with
  | Kvserver.Watchdog.Readmit c -> check int "readmitted core" 1 c
  | _ -> Alcotest.fail "probation should end in readmission");
  check int "none excluded" (-1) (Kvserver.Watchdog.excluded wd);
  (* A recovered core stays in service. *)
  for _ = 1 to 8 do
    check bool "healthy: no change" true (tick () = Kvserver.Watchdog.No_change)
  done

let test_watchdog_healthy_quiet () =
  let wd = Kvserver.Watchdog.create ~cores:4 () in
  let tick = epoch wd ~sick:(fun () -> false) in
  for _ = 1 to 20 do
    check bool "no change" true (tick () = Kvserver.Watchdog.No_change)
  done

let test_watchdog_never_below_two_cores () =
  let wd = Kvserver.Watchdog.create ~cores:2 () in
  let cum = ref 0 in
  for _ = 1 to 10 do
    cum := !cum + 1000;
    let verdict =
      Kvserver.Watchdog.observe wd
        ~ops:[| !cum; 0 |]
        ~depth:(fun c -> if c = 1 then 500 else 3)
    in
    check bool "2 cores: never excludes" true
      (verdict = Kvserver.Watchdog.No_change)
  done

let test_watchdog_depth_floor () =
  (* No progress but an empty queue is idleness, not sickness. *)
  let wd = Kvserver.Watchdog.create ~cores:4 () in
  let cum = Array.make 4 0 in
  for _ = 1 to 10 do
    Array.iteri (fun i c -> cum.(i) <- c + (if i = 1 then 0 else 1000)) cum;
    check bool "shallow queue: no exclusion" true
      (Kvserver.Watchdog.observe wd ~ops:(Array.copy cum) ~depth:(fun _ -> 0)
      = Kvserver.Watchdog.No_change)
  done

(* ------------------------------------------------------------------ *)
(* End to end: determinism and loss accounting on the dsim engine *)

let tiny_scale =
  { Minos.Experiment.quick_scale with warmup_us = 20_000.0; duration_us = 120_000.0 }

let tiny_config () = Minos.Experiment.config_of_scale tiny_scale

let canned_for cfg name =
  Option.get
    (Fault.Plan.canned name ~cores:cfg.Kvserver.Config.cores
       ~warmup_us:cfg.Kvserver.Config.warmup_us
       ~duration_us:cfg.Kvserver.Config.duration_us)

let test_chaos_rerun_byte_identical () =
  (* The acceptance contract: a fixed (plan, seed) reproduces the chaos
     table byte for byte, including under parallel variant execution. *)
  Minos.Par.set_jobs (Some 4);
  let cfg = tiny_config () in
  let plan = canned_for cfg "loss10" in
  let run () =
    Minos.Chaos.run_plan
      { Minos.Run.default with Minos.Run.scale = tiny_scale; seed = 5; offered_mops = Some 7.0 }
      plan
  in
  let a = Obs.Json.to_string (Minos.Chaos.report.Minos.Run.to_json (run ())) in
  let b = Obs.Json.to_string (Minos.Chaos.report.Minos.Run.to_json (run ())) in
  check string "rerun at fixed (plan, seed) is byte-identical" a b

let test_chaos_trace_byte_identical () =
  (* Same contract for the flight recorder: two instrumented faulty runs
     at the same seed emit byte-identical Chrome traces. *)
  let cfg = tiny_config () in
  let plan = canned_for cfg "core-stall" in
  let trace () =
    let obs =
      Obs.Instrument.create ~spans:4096 ~sample_rate:0.1
        ~cores:cfg.Kvserver.Config.cores ~seed:11 ()
    in
    let fault = Fault.Inject.create ~seed:3 plan in
    let m =
      Minos.Experiment.Spec.make Kvserver.Design.minos
      |> Minos.Experiment.Spec.with_cfg cfg
      |> Minos.Experiment.Spec.with_load 2.0
      |> Minos.Experiment.Spec.with_seed 3
      |> Minos.Experiment.Spec.with_obs obs
      |> Minos.Experiment.Spec.with_fault fault
      |> Minos.Experiment.run_spec
    in
    let buf = Buffer.create 65536 in
    Obs.Chrome_trace.to_buffer ?timeline:obs.Obs.Instrument.timeline
      ~decisions:obs.Obs.Instrument.decisions obs.Obs.Instrument.recorder buf;
    (m, Buffer.contents buf)
  in
  let m1, t1 = trace () in
  let m2, t2 = trace () in
  check bool "metrics identical" true (m1 = m2);
  check string "traces byte-identical" t1 t2;
  check bool "trace is non-trivial" true (String.length t1 > 1000)

let test_chaos_check () =
  (* The bench target's gate, at the bench's own (quick) scale, on the
     three plans it names. *)
  let t =
    Minos.Chaos.run ~plans:[ "core-stall"; "loss10"; "overload" ]
      { Minos.Run.default with Minos.Run.scale = Minos.Experiment.quick_scale }
  in
  (match Minos.Chaos.report.Minos.Run.check t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "chaos check: %s" msg);
  check bool "a run without the named plans is rejected" true
    (Result.is_error
       (Minos.Chaos.report.Minos.Run.check { t with Minos.Chaos.rows = [] }))

let exact = Alcotest.(result unit string)

let test_overload_telescopes () =
  (* Under the overload plan every issued request must be accounted for:
     served, dropped by the NIC, tail-dropped at a squeezed ring, shed by
     admission control, or still in flight at the end — nothing lost,
     nothing double-counted. *)
  let cfg = tiny_config () in
  let plan = canned_for cfg "overload" in
  let shed_seen = ref false in
  List.iter
    (fun (label, design, cfg) ->
      let fault = Fault.Inject.create ~seed:5 plan in
      let m =
        Minos.Experiment.Spec.make design
        |> Minos.Experiment.Spec.with_cfg cfg
        |> Minos.Experiment.Spec.with_load 8.0
        |> Minos.Experiment.Spec.with_seed 5
        |> Minos.Experiment.Spec.with_fault fault
        |> Minos.Experiment.run_spec
      in
      check exact (label ^ ": issued telescopes exactly") (Ok ())
        (Obs.Ledger.check (Kvserver.Metrics.ledger m));
      if Kvserver.Metrics.shed_total m > 0 then shed_seen := true)
    [
      ("Minos+guard", Kvserver.Design.minos, Minos.Chaos.guard_config cfg);
      ("Minos", Kvserver.Design.minos, cfg);
    ];
  check bool "admission control shed under overload" true !shed_seen

let test_healthy_runs_lose_nothing () =
  let cfg = tiny_config () in
  let m =
    Minos.Experiment.Spec.make Kvserver.Design.minos
    |> Minos.Experiment.Spec.with_cfg cfg
    |> Minos.Experiment.Spec.with_load 2.0
    |> Minos.Experiment.Spec.with_seed 5
    |> Minos.Experiment.run_spec
  in
  check int "no loss without faults" 0 m.Kvserver.Metrics.lost;
  check exact "telescope holds when healthy" (Ok ())
    (Obs.Ledger.check (Kvserver.Metrics.ledger m))

let test_plan_load_scaling () =
  let f = Alcotest.float 1e-9 in
  check f "default base" 4.0 (Minos.Chaos.plan_load "core-stall");
  check f "loss10 scaled" 7.0 (Minos.Chaos.plan_load "loss10");
  check f "overload scaled" 8.0 (Minos.Chaos.plan_load "overload");
  check f "base override" 3.5 (Minos.Chaos.plan_load ~base:2.0 "loss10")

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validate;
          Alcotest.test_case "canned plans" `Quick test_plan_canned_names;
          Alcotest.test_case "parser round-trip" `Quick test_plan_round_trip;
          Alcotest.test_case "parse forms" `Quick test_plan_parse_forms;
          Alcotest.test_case "kill/recover events" `Quick
            test_plan_kill_recover;
          Alcotest.test_case "unknown and repeated keys" `Quick test_plan_key_errors;
          QCheck_alcotest.to_alcotest plan_fuzz;
        ] );
      ( "inject",
        [
          Alcotest.test_case "fate determinism" `Quick
            test_inject_fate_determinism;
          Alcotest.test_case "no draws outside windows" `Quick
            test_inject_fate_outside_window;
          Alcotest.test_case "slowdown windows" `Quick
            test_inject_slowdown_windows;
          Alcotest.test_case "rx capacity + control faults" `Quick
            test_inject_rx_capacity_and_ctrl;
          Alcotest.test_case "server-dead windows" `Quick
            test_inject_server_dead_windows;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "condemns after hysteresis" `Quick
            test_watchdog_condemns_after_hysteresis;
          Alcotest.test_case "readmits on probation" `Quick
            test_watchdog_readmits_on_probation;
          Alcotest.test_case "healthy stays quiet" `Quick
            test_watchdog_healthy_quiet;
          Alcotest.test_case "never below two cores" `Quick
            test_watchdog_never_below_two_cores;
          Alcotest.test_case "depth floor" `Quick test_watchdog_depth_floor;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "rerun byte-identical" `Quick
            test_chaos_rerun_byte_identical;
          Alcotest.test_case "trace byte-identical" `Quick
            test_chaos_trace_byte_identical;
          Alcotest.test_case "overload telescopes" `Quick
            test_overload_telescopes;
          Alcotest.test_case "healthy runs lose nothing" `Quick
            test_healthy_runs_lose_nothing;
          Alcotest.test_case "per-plan loads" `Quick test_plan_load_scaling;
          Alcotest.test_case "headline check" `Quick test_chaos_check;
        ] );
    ]
