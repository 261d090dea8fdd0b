(* Command-line front end for the Minos reproduction.

   Simulation subcommands (each composes the shared run description):
     run        simulate one (design x workload x load) point
     sweep      throughput vs latency curve for one design
     slo        max throughput under a 99p SLO
     obs        one instrumented point: latency anatomy, Perfetto trace
     trace      capture a workload trace, derive the static threshold
     numa       scale across independent NUMA-domain instances
     chaos      fault plans against hardened/plain Minos and HKH+WS
     cluster    a sharded cluster, size-aware vs a baseline
     reshard    live server add/remove and replica events
     hedge      hedged/tied replica requests vs a crashed server
     scenarios  the scenario suite, size-aware vs keyhash
   Other subcommands:
     figure     regenerate one of the paper's tables/figures
     queueing   run a §2.2 queueing model point
     workloads  list the workload scenario registry
     serve      run the native KV server over kernel UDP
     kv         GET/PUT/DELETE against a running server
     loadtest   closed-loop load test against a running server
*)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument definitions *)

let design_names () =
  String.concat "|"
    (List.map
       (fun d -> String.lowercase_ascii (Kvserver.Design.name d))
       (Kvserver.Design.all ()))

let design_conv =
  let parse s =
    match Kvserver.Design.find s with
    | Some d -> Ok d
    | None ->
        Error (`Msg (Printf.sprintf "unknown design %S (%s)" s (design_names ())))
  in
  let print fmt d = Format.pp_print_string fmt (Kvserver.Design.name d) in
  Arg.conv (parse, print)

(* The one workload selector: --workload NAME[,k=v,...] picks a registered
   scenario ({!Workload.Scenario}). *)
let workload_conv =
  let parse s =
    match Workload.Scenario.parse s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  let print fmt (t : Workload.Scenario.t) =
    Format.pp_print_string fmt t.Workload.Scenario.label
  in
  Arg.conv (parse, print)

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use the reduced (test-sized) run scale.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel experiment runs (default: the MINOS_JOBS \
           environment variable, else the machine's core count; 1 forces sequential \
           execution).  Results are identical for every value.")

(* ------------------------------------------------------------------ *)
(* The shared run description.  Each flag below sets one field of
   {!Minos.Run.t}; a simulation subcommand lists the flags it takes and
   [run_term] folds them into one record. *)

let field arg set = Term.(const set $ arg)

let quick =
  field quick_flag (fun quick r ->
      { r with Minos.Run.scale = Minos.Experiment.scale_of ~quick })

let seed =
  field
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the run.")
    (fun seed r -> { r with Minos.Run.seed })

let workload =
  field
    Arg.(
      value
      & opt workload_conv Workload.Scenario.default
      & info [ "w"; "workload" ] ~docv:"NAME[,k=v,...]"
          ~doc:
            "Workload scenario from the registry (list with $(b,minos workloads)), \
             with optional knob overrides, e.g. $(b,-w ttl-churn,ttl_ms=20) or \
             $(b,-w default,p_large=0.5).  Subcommands that run only a flat \
             request mix refuse a scenario with extras.")
    (fun workload r -> { r with Minos.Run.workload })

let design =
  field
    Arg.(
      value
      & opt design_conv Kvserver.Design.minos
      & info [ "d"; "design" ] ~docv:"DESIGN"
          ~doc:(Printf.sprintf "Server design: %s." (design_names ())))
    (fun design r -> { r with Minos.Run.design })

let baseline =
  field
    Arg.(
      value
      & opt design_conv Kvserver.Design.hkh
      & info [ "baseline" ] ~docv:"DESIGN"
          ~doc:
            (Printf.sprintf "Per-server baseline design to compare against: %s."
               (design_names ())))
    (fun baseline r -> { r with Minos.Run.baseline })

let load =
  field
    Arg.(
      value
      & opt (some float) None
      & info [ "l"; "load" ] ~docv:"MOPS"
          ~doc:
            "Offered load in million ops/s.  Each subcommand has its own default: \
             3.0 for run, obs, trace and numa (the total across domains); 4.0 for \
             chaos, whose canned plans scale it (loss10 runs at 1.75x, overload \
             at 2x); 8.0 for cluster, reshard and hedge (the whole cluster); 2.5 \
             for scenarios.")
    (fun offered_mops r -> { r with Minos.Run.offered_mops })

let json =
  field
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the results as JSON.")
    (fun json r -> { r with Minos.Run.json })

let trace_out doc =
  field
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
    (fun trace_out r -> { r with Minos.Run.trace_out })

let jobs =
  field jobs_arg (fun jobs r ->
      Minos.Par.set_jobs jobs;
      r)

let run_term fields =
  List.fold_left
    (fun acc set -> Term.(const (fun r set -> set r) $ acc $ set))
    (Term.const Minos.Run.default) fields

let print_metrics m =
  Format.printf "%a@." Kvserver.Metrics.pp_row m;
  Format.printf
    "  p50=%.1fus p95=%.1fus p99=%.1fus p999=%.1fus small_p99=%.1fus large_p99=%.1fus@."
    m.Kvserver.Metrics.p50_us m.Kvserver.Metrics.p95_us m.Kvserver.Metrics.p99_us
    m.Kvserver.Metrics.p999_us m.Kvserver.Metrics.small_p99_us
    m.Kvserver.Metrics.large_p99_us;
  if m.Kvserver.Metrics.final_large_cores > 0 then
    Format.printf "  large cores=%d threshold=%.0fB@."
      m.Kvserver.Metrics.final_large_cores m.Kvserver.Metrics.final_threshold

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd =
  let trace_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace-file" ] ~docv:"FILE"
          ~doc:
            "Replay a captured trace file (see $(b,minos trace)) instead of the \
             synthetic generator; a timed trace replays at its recorded pacing.  \
             The workload's TTL, sweep and memory budget apply to the replay.")
  in
  let action trace_file (run : Minos.Run.t) =
    let spec = Minos.Run.spec run in
    print_metrics
      (Minos.Experiment.run_spec
         (match trace_file with
         | Some path -> Minos.Experiment.Spec.with_trace (Workload.Trace.load path) spec
         | None -> spec))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one (design, workload, load) point.")
    Term.(const action $ trace_file $ run_term [ design; load; workload; quick; seed ])

(* ------------------------------------------------------------------ *)
(* sweep *)

let sweep_cmd =
  let loads_arg =
    Arg.(
      value
      & opt (list float) [ 1.0; 2.0; 3.0; 4.0; 5.0; 5.5; 6.0; 6.5 ]
      & info [ "loads" ] ~docv:"MOPS,..." ~doc:"Comma-separated offered loads.")
  in
  let action loads (run : Minos.Run.t) =
    List.iter
      (fun (_, m) -> Format.printf "%a@." Kvserver.Metrics.pp_row m)
      (Minos.Experiment.sweep ~cfg:(Minos.Run.config run) run.Minos.Run.design
         (Minos.Run.flat run) ~loads_mops:loads)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Throughput vs latency curve for one design.")
    Term.(const action $ loads_arg $ run_term [ design; workload; quick; jobs ])

(* ------------------------------------------------------------------ *)
(* slo *)

let slo_cmd =
  let slo_us =
    Arg.(
      value
      & opt float 50.0
      & info [ "slo" ] ~docv:"US" ~doc:"The 99p latency bound in microseconds.")
  in
  let action slo_us (run : Minos.Run.t) =
    let r =
      Minos.Slo_search.max_under_slo (Minos.Run.spec run) ~slo_us
        ~iters:run.Minos.Run.scale.Minos.Experiment.slo_iters
    in
    Format.printf "%s: max throughput %.2f Mops under p99 <= %.0f us (%d evaluations)@."
      (Minos.Experiment.design_name run.Minos.Run.design)
      r.Minos.Slo_search.max_mops slo_us r.Minos.Slo_search.evaluations
  in
  Cmd.v
    (Cmd.info "slo" ~doc:"Maximum throughput under a 99p latency SLO.")
    Term.(const action $ slo_us $ run_term [ design; workload; quick; jobs ])

(* ------------------------------------------------------------------ *)
(* figure *)

let figure_cmd =
  let fig_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIGURE"
          ~doc:
            ("One of: " ^ String.concat " " (List.map fst Minos.Figures.table) ^ "."))
  in
  let action name quick jobs =
    Minos.Par.set_jobs jobs;
    match List.assoc_opt name Minos.Figures.table with
    | Some (_, print) -> print quick
    | None ->
        Printf.eprintf "unknown figure %s\n" name;
        exit 1
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one of the paper's tables or figures.")
    Term.(const action $ fig_name $ quick_flag $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* obs: instrumented run with flight-recorder trace + latency anatomy *)

let obs_cmd =
  let sample_rate =
    Arg.(
      value
      & opt float 1.0
      & info [ "sample-rate" ] ~docv:"FRAC"
          ~doc:"Fraction of requests recorded, in (0, 1].")
  in
  let spans =
    Arg.(
      value
      & opt int 65536
      & info [ "spans" ] ~docv:"N" ~doc:"Flight-recorder capacity in spans.")
  in
  let action sample_rate spans run =
    ignore (Minos.Obs_report.run ~spans ~sample_rate run)
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Instrumented simulation: per-request flight-recorder spans, latency-anatomy \
          table, control-loop decisions and an optional Perfetto trace.")
    Term.(
      const action $ sample_rate $ spans
      $ run_term
          [
            design; load; workload; quick; seed;
            trace_out
              "Write a Chrome trace-event JSON of the sampled requests (load in \
               Perfetto or chrome://tracing).";
          ])

(* ------------------------------------------------------------------ *)
(* queueing *)

let queueing_cmd =
  let discipline_conv =
    let parse = function
      | "percore" | "nxmg1" -> Ok Queueing.Models.Per_core_queues
      | "single" | "mgn" -> Ok Queueing.Models.Single_queue
      | "steal" | "ws" -> Ok Queueing.Models.Work_stealing
      | s -> Error (`Msg (Printf.sprintf "unknown discipline %S (percore|single|steal)" s))
    in
    let print fmt d = Format.pp_print_string fmt (Queueing.Models.discipline_name d) in
    Arg.conv (parse, print)
  in
  let discipline =
    Arg.(
      value
      & opt discipline_conv Queueing.Models.Per_core_queues
      & info [ "discipline" ] ~docv:"D" ~doc:"percore, single or steal.")
  in
  let k =
    Arg.(value & opt float 100.0 & info [ "k" ] ~docv:"K" ~doc:"Large service multiplier.")
  in
  let qload =
    Arg.(value & opt float 0.5 & info [ "load" ] ~docv:"RHO" ~doc:"Normalized load (0..1).")
  in
  let action discipline k load =
    let r =
      Queueing.Models.run discipline { Queueing.Models.default_config with k; load }
    in
    Format.printf "%s K=%.0f load=%.2f: mean=%.2f p50=%.2f p99=%.2f (small-service units)@."
      (Queueing.Models.discipline_name discipline)
      k load r.Queueing.Models.mean r.Queueing.Models.p50 r.Queueing.Models.p99
  in
  Cmd.v
    (Cmd.info "queueing" ~doc:"Run one point of the §2.2 queueing simulation.")
    Term.(const action $ discipline $ k $ qload)

(* ------------------------------------------------------------------ *)
(* trace: capture a workload trace and run the §6.2 offline analysis *)

let trace_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the trace.")
  in
  let count =
    Arg.(
      value & opt int 500_000 & info [ "n" ] ~docv:"N" ~doc:"Requests to capture.")
  in
  let replay =
    Arg.(
      value
      & opt (some design_conv) None
      & info [ "replay" ] ~docv:"DESIGN"
          ~doc:"After capturing, replay the trace through this design.")
  in
  let action out count replay (run : Minos.Run.t) =
    let sc = run.Minos.Run.workload in
    let spec = sc.Workload.Scenario.spec in
    let dataset = Minos.Experiment.dataset_for spec in
    let load = (Minos.Run.spec run).Minos.Experiment.Spec.offered_mops in
    let seed = run.Minos.Run.seed in
    let trace =
      match Workload.Scenario.flat sc with
      | Ok _ -> Workload.Trace.capture (Workload.Scenario.generator ~seed sc dataset) ~n:count
      | Error _ ->
          (* A scenario with extras is captured timed: replaying it
             reproduces the scenario's arrival process at its recorded
             pacing. *)
          Workload.Scenario.capture ~seed sc dataset ~rate_mops:load ~n:count
    in
    Workload.Trace.save out trace;
    Format.printf "wrote %d%s requests to %s@." count
      (if Workload.Trace.timed trace then " timed" else "")
      out;
    Format.printf "offline analysis: p99 item size = %.0f B (static threshold),@."
      (Workload.Trace.size_percentile trace 0.99);
    Format.printf "  %.3f%% large requests, mean item %.0f B@."
      (Workload.Trace.percent_large trace)
      (Workload.Trace.mean_item_size trace);
    match replay with
    | None -> ()
    | Some design ->
        (* The capture already carries the scenario's arrival process and
           stands in for its own replay capture. *)
        let workload =
          { sc with Workload.Scenario.arrival = Workload.Arrival.Poisson; replay = false }
        in
        let m =
          Minos.Run.spec { run with Minos.Run.design; workload }
          |> Minos.Experiment.Spec.with_trace trace
          |> Minos.Experiment.run_spec
        in
        Format.printf "trace-driven replay:@.";
        print_metrics m
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Capture a workload trace, derive the static size threshold offline, and \
          optionally replay it.")
    Term.(
      const action $ out $ count $ replay $ run_term [ workload; seed; load; quick ])

(* ------------------------------------------------------------------ *)
(* numa: multi-domain scaling *)

let numa_cmd =
  let domains =
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N" ~doc:"NUMA domains.")
  in
  let action domains (run : Minos.Run.t) =
    let r = Minos.Numa.run ~domains run in
    Format.printf
      "%d domains x %s: tput=%.2f Mops p50=%.1fus p99=%.1fus p999=%.1fus%s@." domains
      (Minos.Experiment.design_name run.Minos.Run.design)
      r.Minos.Numa.total_throughput_mops r.Minos.Numa.p50_us r.Minos.Numa.p99_us
      r.Minos.Numa.p999_us
      (if r.Minos.Numa.stable then "" else " UNSTABLE");
    List.iteri
      (fun i m -> Format.printf "  domain %d: %a@." i Kvserver.Metrics.pp_row m)
      r.Minos.Numa.per_domain
  in
  Cmd.v
    (Cmd.info "numa" ~doc:"Scale across NUMA domains (independent instances, §3).")
    Term.(const action $ domains $ run_term [ design; load; workload; quick ])

(* ------------------------------------------------------------------ *)
(* serve: run the native size-aware KV server over kernel UDP *)

let serve_cmd =
  let port =
    Arg.(value & opt int 47700 & info [ "port" ] ~docv:"PORT" ~doc:"First RX-queue port.")
  in
  let cores =
    Arg.(
      value
      & opt int Runtime.Server.default_config.Runtime.Server.cores
      & info [ "cores" ] ~docv:"N"
          ~doc:"Worker domains: at least 2, at most the machine's hardware threads.")
  in
  let arena_mb =
    Arg.(
      value & opt int 256
      & info [ "arena-mb" ] ~docv:"MB"
          ~doc:
            "Value arena size in MiB (at most 4096), shared by all keys.  A PUT the arena \
             cannot hold is answered Overloaded.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log control-loop decisions.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Attach a flight recorder and write a Chrome trace-event JSON of the \
             served requests on shutdown.")
  in
  let action port cores arena_mb verbose trace_out =
    if verbose then begin
      Logs.set_reporter (Logs_fmt.reporter ());
      Logs.set_level (Some Logs.Info)
    end;
    let store =
      Kvstore.Store.create ~partition_bits:4 ~bucket_bits:12
        ~value_arena_bytes:(arena_mb * 1024 * 1024) ()
    in
    let config = { Runtime.Server.default_config with Runtime.Server.cores } in
    let obs =
      match trace_out with
      | None -> None
      | Some _ -> Some (Obs.Instrument.create ~cores ~seed:1 ())
    in
    let udp =
      try Runtime.Udp.start ?obs ~config ~base_port:port store
      with Runtime.Server.Oversubscribed { cores; limit } ->
        Format.eprintf "minos serve: --cores %d exceeds the %d this machine can run@." cores
          limit;
        exit 2
    in
    Format.printf
      "minos: serving on 127.0.0.1 UDP ports %d-%d (%d worker domains)@." port
      (port + cores - 1) cores;
    Format.printf "value arena: %d MiB %s@." arena_mb
      (if (Kvstore.Store.stats store).Kvstore.Store.arena_huge_pages then
         "advised for 2 MB pages"
       else "not advised (4 KB pages)");
    Format.printf "GETs: any port; PUTs: keyhash port. Ctrl-C to stop.@.";
    let stop = ref false in
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
    while not !stop do
      Unix.sleepf 0.5
    done;
    Format.printf "stopping...@.";
    Runtime.Udp.stop udp;
    let stats = Runtime.Server.stats (Runtime.Udp.server udp) in
    Format.printf "served %d requests (%d handoffs, threshold %.0f B)@."
      (Array.fold_left ( + ) 0 stats.Runtime.Server.served)
      stats.Runtime.Server.handoffs stats.Runtime.Server.threshold;
    match (obs, trace_out) with
    | Some o, Some path ->
        Obs.Chrome_trace.write ~path ~name:"minos serve"
          ?timeline:o.Obs.Instrument.timeline ~decisions:o.Obs.Instrument.decisions
          o.Obs.Instrument.recorder;
        Minos.Obs_report.print_anatomy (Obs.Anatomy.compute o.Obs.Instrument.recorder);
        Format.printf "trace written to %s@." path
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the native size-aware KV server over kernel UDP.")
    Term.(const action $ port $ cores $ arena_mb $ verbose $ trace_out)

(* ------------------------------------------------------------------ *)
(* kv: talk to a running `minos serve` instance *)

let kv_cmd =
  let port =
    Arg.(value & opt int 47700 & info [ "port" ] ~docv:"PORT" ~doc:"Server base port.")
  in
  let queues =
    Arg.(
      value
      & opt int Runtime.Server.default_config.Runtime.Server.cores
      & info [ "queues" ] ~docv:"N" ~doc:"Server RX queues (= cores).")
  in
  let op =
    Arg.(
      required
      & pos 0 (some (enum [ ("get", `Get); ("put", `Put); ("del", `Del) ])) None
      & info [] ~docv:"OP" ~doc:"get, put or del.")
  in
  let key = Arg.(required & pos 1 (some string) None & info [] ~docv:"KEY") in
  let value = Arg.(value & pos 2 (some string) None & info [] ~docv:"VALUE") in
  let action port queues op key value =
    let client = Runtime.Udp.Client.connect ~base_port:port ~queues () in
    Fun.protect
      ~finally:(fun () -> Runtime.Udp.Client.close client)
      (fun () ->
        try
          match (op, value) with
          | `Get, _ -> (
              match Runtime.Udp.Client.get client key with
              | Some v ->
                  print_bytes v;
                  print_newline ()
              | None ->
                  prerr_endline "(not found)";
                  exit 1)
          | `Put, Some v -> Runtime.Udp.Client.put client key (Bytes.of_string v)
          | `Put, None ->
              prerr_endline "put requires a VALUE";
              exit 2
          | `Del, _ -> if not (Runtime.Udp.Client.delete client key) then exit 1
        with Runtime.Udp.Client.Timeout ->
          prerr_endline "timeout: is `minos serve` running on this port?";
          exit 3)
  in
  Cmd.v
    (Cmd.info "kv" ~doc:"GET/PUT/DELETE against a running `minos serve` instance.")
    Term.(const action $ port $ queues $ op $ key $ value)

(* ------------------------------------------------------------------ *)
(* loadtest: drive a running server from several client domains *)

let loadtest_cmd =
  let port =
    Arg.(value & opt int 47700 & info [ "port" ] ~docv:"PORT" ~doc:"Server base port.")
  in
  let queues =
    Arg.(
      value
      & opt int Runtime.Server.default_config.Runtime.Server.cores
      & info [ "queues" ] ~docv:"N" ~doc:"Server RX queues.")
  in
  let clients =
    Arg.(value & opt int 2 & info [ "clients" ] ~docv:"N" ~doc:"Client domains.")
  in
  let requests =
    Arg.(value & opt int 5000 & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let value_size =
    Arg.(value & opt int 100 & info [ "value-size" ] ~docv:"BYTES" ~doc:"PUT value size.")
  in
  let action port queues clients requests value_size =
    let worker c =
      Domain.spawn (fun () ->
          let client =
            Runtime.Udp.Client.connect ~base_port:port ~queues ()
          in
          Fun.protect
            ~finally:(fun () -> Runtime.Udp.Client.close client)
            (fun () ->
              let latencies = Stats.Float_vec.create ~capacity:requests () in
              let value = Bytes.create value_size in
              for i = 0 to requests - 1 do
                let key = Printf.sprintf "bench-%d-%d" c (i mod 512) in
                let t0 = Unix.gettimeofday () in
                (if i mod 10 = 0 then Runtime.Udp.Client.put client key value
                 else ignore (Runtime.Udp.Client.get client key));
                Stats.Float_vec.push latencies
                  (1.0e6 *. (Unix.gettimeofday () -. t0))
              done;
              latencies))
    in
    let t0 = Unix.gettimeofday () in
    let all = List.map Domain.join (List.map worker (List.init clients Fun.id)) in
    let dt = Unix.gettimeofday () -. t0 in
    let merged = Stats.Float_vec.create () in
    List.iter (fun v -> Stats.Float_vec.iter (Stats.Float_vec.push merged) v) all;
    let qs = Stats.Quantile.many_of_vec merged [ 0.5; 0.99 ] in
    Format.printf "%d clients x %d requests in %.2fs: %.0f rps, p50=%.0fus p99=%.0fus@."
      clients requests dt
      (float_of_int (clients * requests) /. dt)
      (List.nth qs 0) (List.nth qs 1)
  in
  Cmd.v
    (Cmd.info "loadtest" ~doc:"Closed-loop load test against a running `minos serve`.")
    Term.(const action $ port $ queues $ clients $ requests $ value_size)

(* ------------------------------------------------------------------ *)
(* chaos *)

let chaos_cmd =
  let plan_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "fault-plan" ] ~docv:"FILE"
          ~doc:
            "Run a fault plan from a file (see lib/fault/plan.mli for the \
             format) instead of the canned scenarios.")
  in
  let plans_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "plans" ] ~docv:"NAME,..."
          ~doc:
            "Canned plans to run (default: all of core-stall, loss10, overload, \
             ctrl-corrupt).  Ignored with $(b,--fault-plan).")
  in
  let action plan_file plans run =
    let t =
      match plan_file with
      | Some file -> (
          match Fault.Plan.of_file file with
          | Error e ->
              Printf.eprintf "chaos: %s\n" e;
              exit 1
          | Ok plan -> Minos.Chaos.run_plan run plan)
      | None ->
          let plans = match plans with [] -> None | l -> Some l in
          Minos.Chaos.run ?plans run
    in
    Minos.Run.emit run Minos.Chaos.report t
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the chaos harness: deterministic fault plans (core stalls, packet \
          loss, ring squeezes, control corruption) against the hardened Minos, \
          the plain Minos and the HKH+WS baseline.  Fixed (plan, seed) pairs \
          reproduce byte-identical results.")
    Term.(
      const action $ plan_file $ plans_arg
      $ run_term [ json; load; workload; quick; seed; jobs ])

(* ------------------------------------------------------------------ *)
(* cluster *)

let cluster_cmd =
  let servers_arg =
    Arg.(
      value
      & opt int 4
      & info [ "servers" ] ~docv:"N" ~doc:"Number of shard servers.")
  in
  let policy_conv =
    Arg.enum [ ("hash", Shardmgr.Table.Hash); ("range", Shardmgr.Table.Range) ]
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv Shardmgr.Table.Hash
      & info [ "policy" ] ~docv:"hash|range"
          ~doc:
            "Routing policy: consistent hashing over virtual nodes, or an \
             explicit key-range map.")
  in
  let rebalance_arg =
    Arg.(
      value & flag
      & info [ "rebalance" ]
          ~doc:
            "Re-cut range boundaries from probed per-bucket key load before \
             the measured run (range policy only).")
  in
  let vnodes_arg =
    Arg.(
      value
      & opt int 128
      & info [ "vnodes" ] ~docv:"N" ~doc:"Virtual nodes per server (hash policy).")
  in
  let fanouts_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16 ]
      & info [ "fanouts" ] ~docv:"K,..."
          ~doc:"Multi-GET fan-out degrees to measure.")
  in
  let trials_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "trials" ] ~docv:"N" ~doc:"Multi-GET trials per fan-out degree.")
  in
  let action servers policy rebalance vnodes fanouts trials run =
    Minos.Run.emit run Minos.Cluster.report
      (Minos.Cluster.run ~policy ~vnodes ~rebalance ~fanouts ?trials ~servers run)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Simulate a sharded cluster: N independent servers behind a \
          client-side router (a no-op-plan run of the reshard table), under \
          the chosen design and a baseline at the same offered load.  Reports per-shard and aggregate latency, \
          loss-accounting, and multi-GET completion p99 versus fan-out \
          degree.")
    Term.(
      const action $ servers_arg $ policy_arg $ rebalance_arg $ vnodes_arg
      $ fanouts_arg $ trials_arg
      $ run_term
          [
            design; baseline; json;
            trace_out
              "Write a merged Chrome trace of the main run, one process group \
               per shard server.";
            load; workload; quick; seed; jobs;
          ])

(* ------------------------------------------------------------------ *)
(* reshard *)

let reshard_cmd =
  let servers_arg =
    Arg.(
      value
      & opt int 4
      & info [ "servers" ] ~docv:"N" ~doc:"Initial number of shard servers.")
  in
  let plan_file_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "reshard-plan" ] ~docv:"FILE"
          ~doc:
            "Run a reshard plan from a file (see lib/shardmgr/plan.mli for \
             the format) instead of a canned scenario.")
  in
  let plan_name_arg =
    Arg.(
      value
      & opt string "add-remove"
      & info [ "plan" ] ~docv:"NAME"
          ~doc:
            "Canned reshard scenario: noop, add-remove (a server joins \
             early, server 1 leaves later) or replica-cycle.  Ignored with \
             $(b,--reshard-plan).")
  in
  let groups_arg =
    Arg.(
      value
      & opt int 8
      & info [ "groups" ] ~docv:"N"
          ~doc:"Key groups cutting over at staggered instants per migration.")
  in
  let vnodes_arg =
    Arg.(
      value
      & opt int 128
      & info [ "vnodes" ] ~docv:"N" ~doc:"Virtual nodes per server.")
  in
  let manage_arg =
    Arg.(
      value & flag
      & info [ "manage" ]
          ~doc:
            "Run the shard-manager control loop: a first membership-only \
             pass records per-shard p99 windows, the manager's hysteresis \
             turns them into add/drop-replica events, and the measured run \
             replays with those appended to the plan.")
  in
  let action servers plan_file plan_name groups vnodes manage (run : Minos.Run.t) =
    let plan =
      match plan_file with
      | Some file -> (
          match Shardmgr.Plan.of_file file with
          | Ok p -> p
          | Error e ->
              Printf.eprintf "reshard: %s\n" e;
              exit 1)
      | None -> (
          let s = run.Minos.Run.scale in
          match
            Shardmgr.Plan.canned plan_name ~warmup_us:s.Minos.Experiment.warmup_us
              ~duration_us:s.Minos.Experiment.duration_us
          with
          | Some p -> p
          | None ->
              Printf.eprintf "reshard: unknown plan %S (canned: %s)\n"
                plan_name
                (String.concat ", " Shardmgr.Plan.canned_names);
              exit 1)
    in
    let manage = if manage then Some Shardmgr.Manager.default else None in
    Minos.Run.emit run Minos.Reshard.report
      (Minos.Reshard.run ~vnodes ~groups ?manage ~servers ~plan run)
  in
  Cmd.v
    (Cmd.info "reshard"
       ~doc:
         "Elastic resharding: replay a timed plan of server add/remove and \
          replica events against a live cluster run (drain, dual-route, \
          staggered cutover), under the chosen design and a baseline.  \
          Reports the p99 timeline across the migrations, exact loss \
          accounting and a key-conservation audit; fixed (seed, plan) pairs \
          reproduce byte-identical results.")
    Term.(
      const action $ servers_arg $ plan_file_arg $ plan_name_arg $ groups_arg
      $ vnodes_arg $ manage_arg
      $ run_term
          [
            design; baseline; json;
            trace_out
              "Write a merged Chrome trace of the main run: one process group \
               per server plus a shardmgr track carrying the reshard schedule.";
            load; workload; quick; seed; jobs;
          ])

(* ------------------------------------------------------------------ *)
(* hedge *)

let hedge_cmd =
  let shards_arg =
    Arg.(
      value
      & opt int 4
      & info [ "shards" ] ~docv:"N" ~doc:"Number of primary shards.")
  in
  let mirrors_arg =
    Arg.(
      value
      & opt int 1
      & info [ "mirrors" ] ~docv:"N"
          ~doc:"Replicas per shard beyond the primary (at least 1).")
  in
  let cores_arg =
    Arg.(
      value
      & opt int 8
      & info [ "cores" ] ~docv:"N" ~doc:"Worker cores per server.")
  in
  let quantile_arg =
    Arg.(
      value
      & opt float 0.95
      & info [ "hedge-quantile" ] ~docv:"Q"
          ~doc:
            "Completion-latency quantile tracked as the hedge delay \
             (default 0.95: hedge after the windowed p95).")
  in
  let detect_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "detect" ] ~docv:"US"
          ~doc:
            "Failure-detector timeout in microseconds (default: 15% of the \
             measured window).")
  in
  let action shards mirrors cores hedge_quantile detect_us run =
    Minos.Run.emit run Minos.Hedge.report
      (Minos.Hedge.run ~shards ~mirrors ~cores ~hedge_quantile ?detect_us run)
  in
  Cmd.v
    (Cmd.info "hedge"
       ~doc:
         "Replica-aware tail-cutting: spread GETs over shard replicas and \
          race hedged or tied backup copies against a crashed server.  Runs \
          the variant grid (Minos/keyhash servers x hedged/tied/off x \
          spread/p2c) fault-free and under a canned kill-server plan, \
          reports exact copy-level loss accounting, the hedge tax and a \
          key-conservation audit across the crash; fixed seeds reproduce \
          byte-identical results.")
    Term.(
      const action $ shards_arg $ mirrors_arg $ cores_arg $ quantile_arg $ detect_arg
      $ run_term
          [
            json;
            trace_out
              "Write a Chrome trace whose decision track carries the hedged \
               kill-server variant's crash / restart / hedge-delay instants.";
            load; workload; quick; seed; jobs;
          ])

(* ------------------------------------------------------------------ *)
(* workloads: list the scenario registry *)

let workloads_cmd =
  let action () =
    List.iter
      (fun (i : Workload.Scenario.info) ->
        let aliases =
          match i.Workload.Scenario.aliases with
          | [] -> ""
          | l -> Printf.sprintf " (aliases: %s)" (String.concat ", " l)
        in
        Format.printf "%-16s %s%s@." i.Workload.Scenario.name
          i.Workload.Scenario.summary aliases;
        List.iter
          (fun (k, doc) -> Format.printf "    %-14s %s@." k doc)
          i.Workload.Scenario.knobs)
      (Workload.Scenario.all ());
    Format.printf "@.common knobs (every scenario):@.";
    List.iter
      (fun (k, doc) -> Format.printf "    %-14s %s@." k doc)
      Workload.Scenario.common_knobs
  in
  Cmd.v
    (Cmd.info "workloads"
       ~doc:
         "List the workload scenario registry: names, aliases and the k=v knobs \
          accepted by --workload.")
    Term.(const action $ const ())

(* ------------------------------------------------------------------ *)
(* scenarios: the scenario suite, size-aware vs keyhash *)

let scenarios_cmd =
  let names_arg =
    Arg.(
      value
      & opt (list string) Minos.Scenarios.suite
      & info [ "names" ] ~docv:"NAME,..."
          ~doc:"Scenarios to run (default: the full suite).")
  in
  let action names run =
    Minos.Run.emit run Minos.Scenarios.report (Minos.Scenarios.run ~names run)
  in
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:
         "Run the scenario suite (diurnal ramps, bursts, TTL churn, scan-heavy, \
          larger-than-memory cold tier) size-aware vs keyhash and report p99s \
          plus the extended loss-accounting identity; fixed seeds reproduce \
          byte-identical results at any --jobs.")
    Term.(const action $ names_arg $ run_term [ json; load; quick; seed; jobs ])

let () =
  let info =
    Cmd.info "minos" ~version:"1.0.0"
      ~doc:"Size-aware sharding for in-memory key-value stores (NSDI'19 reproduction)."
  in
  let cmd =
    Cmd.group info
      [
        run_cmd; sweep_cmd; slo_cmd; figure_cmd; obs_cmd; queueing_cmd; trace_cmd;
        numa_cmd; serve_cmd; kv_cmd; loadtest_cmd; chaos_cmd; cluster_cmd;
        reshard_cmd; hedge_cmd; workloads_cmd; scenarios_cmd;
      ]
  in
  (* The runners raise [Invalid_argument] on a run they refuse, such as a
     scenario with extras on a flat-mix subcommand or an unknown scenario
     name: that is a user error, not a crash. *)
  exit
    (try Cmd.eval ~catch:false cmd
     with Invalid_argument msg ->
       Printf.eprintf "minos: %s\n" msg;
       1)
