(* Tests for the native multicore runtime: real domains, real rings, real
   store, real control loop.  These assert functional properties —
   completeness, classification, adaptation, CREW safety — not latency
   (domains time-slice on small CI machines). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* A dataset small enough to materialize fully (values are real bytes). *)
let runtime_spec =
  {
    Workload.Spec.default with
    Workload.Spec.n_keys = 3_000;
    n_large_keys = 30;
    s_large_max = 64_000; (* large class: 1.5KB - 64KB *)
  }

(* A Loadgen run that must complete: a stall fails the test, naming the
   unanswered ids and the server's ledger. *)
let completed = function
  | Ok r -> r
  | Error s -> Alcotest.fail (Runtime.Loadgen.stall_message s)

let with_server ?config ?(spec = runtime_spec) f =
  let dataset = Workload.Dataset.create spec in
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:8
      ~value_arena_bytes:(64 * 1024 * 1024) ()
  in
  Runtime.Loadgen.populate store dataset;
  let server = Runtime.Server.start ?config store in
  Fun.protect ~finally:(fun () -> Runtime.Server.stop server) (fun () -> f server dataset)

let test_all_requests_answered () =
  with_server (fun server dataset ->
      let r =
        completed (Runtime.Loadgen.run ~server ~dataset ~requests:20_000 ~seed:3 ())
      in
      check int "every request answered" 20_000 r.Runtime.Loadgen.completed;
      check int "no spurious misses" 0 r.Runtime.Loadgen.not_found;
      check int "latency per request" 20_000
        (Stats.Float_vec.length r.Runtime.Loadgen.latencies))

let test_served_counts_conserve () =
  with_server (fun server dataset ->
      let r = completed (Runtime.Loadgen.run ~server ~dataset ~requests:10_000 ~seed:5 ()) in
      let stats = Runtime.Server.stats server in
      let total = Array.fold_left ( + ) 0 stats.Runtime.Server.served in
      check int "per-core serves sum to completions" r.Runtime.Loadgen.completed total)

let test_controller_converges () =
  with_server (fun server dataset ->
      (* Enough traffic to span several 50 ms epochs. *)
      let _ = completed (Runtime.Loadgen.run ~server ~dataset ~requests:60_000 ~seed:7 ()) in
      let stats = Runtime.Server.stats server in
      check bool "control loop ran" true (stats.Runtime.Server.epochs >= 1);
      (* The p99 item size of this spec sits inside the small class. *)
      if
        stats.Runtime.Server.threshold < 900.0
        || stats.Runtime.Server.threshold > 1600.0
      then Alcotest.failf "threshold %.0f out of band" stats.Runtime.Server.threshold;
      check bool "big requests produced handoffs" true
        (stats.Runtime.Server.handoffs > 0);
      check bool "small pool + large pool = cores" true
        (stats.Runtime.Server.n_small + stats.Runtime.Server.n_large
        = Runtime.Server.default_config.Runtime.Server.cores))

let test_keyhash_mode () =
  let config =
    { Runtime.Server.default_config with Runtime.Server.design = Kvserver.Design.hkh }
  in
  with_server ~config (fun server dataset ->
      let r = completed (Runtime.Loadgen.run ~server ~dataset ~requests:10_000 ~seed:9 ()) in
      check int "completed" 10_000 r.Runtime.Loadgen.completed;
      let stats = Runtime.Server.stats server in
      check int "keyhash mode never hands off" 0 stats.Runtime.Server.handoffs)

let test_store_consistent_after_run () =
  let dataset = Workload.Dataset.create runtime_spec in
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:8
      ~value_arena_bytes:(64 * 1024 * 1024) ()
  in
  Runtime.Loadgen.populate store dataset;
  let before = (Kvstore.Store.stats store).Kvstore.Store.items in
  let server = Runtime.Server.start store in
  let _ = completed (Runtime.Loadgen.run ~server ~dataset ~requests:15_000 ~seed:11 ()) in
  Runtime.Server.stop server;
  (* PUTs overwrite existing keys, so the item count is unchanged and
     every key still resolves with a class-consistent size. *)
  check int "item count preserved" before (Kvstore.Store.stats store).Kvstore.Store.items;
  for id = 0 to Workload.Dataset.n_keys dataset - 1 do
    match Kvstore.Store.size_of store (Workload.Dataset.key_name id) with
    | None -> Alcotest.failf "key %d lost" id
    | Some size ->
        let large = Workload.Dataset.is_large_key dataset id in
        if large && size < Workload.Spec.large_min then
          Alcotest.failf "large key %d shrank to %d" id size;
        if (not large) && size > Workload.Spec.small_max then
          Alcotest.failf "small key %d grew to %d" id size
  done

let test_concurrent_clients () =
  (* Several client domains submitting at once: exercises multi-producer
     RX rings, the shared reply ring and the clients' mailbox forwarding.
     Every request must be answered exactly once to its own client. *)
  with_server (fun server dataset ->
      let r =
        completed
          (Runtime.Loadgen.run_concurrent ~clients:3 ~server ~dataset
             ~requests_per_client:4_000 ~seed:21 ())
      in
      check int "all clients fully answered" 12_000 r.Runtime.Loadgen.completed;
      check int "no misses" 0 r.Runtime.Loadgen.not_found;
      check int "one latency per request" 12_000
        (Stats.Float_vec.length r.Runtime.Loadgen.latencies))

let test_delete_through_scheduler () =
  (* DELETE is a "special PUT": it dispatches by keyhash and flows through
     the workers like any write. *)
  let store =
    Kvstore.Store.create ~partition_bits:3 ~bucket_bits:6
      ~value_arena_bytes:(1 lsl 22) ()
  in
  Kvstore.Store.put store ~guard:`Lock "victim" (Bytes.of_string "doomed");
  let server = Runtime.Server.start store in
  Fun.protect
    ~finally:(fun () -> Runtime.Server.stop server)
    (fun () ->
      let submit op =
        let req =
          { Runtime.Message.id = Int64.of_int (Hashtbl.hash op);
            op; key = "victim"; submitted_at = Unix.gettimeofday ();
            obs_slot = -1 }
        in
        while not (Runtime.Server.submit server req) do
          Domain.cpu_relax ()
        done;
        let rec wait () =
          match Runtime.Server.poll_reply server with
          | Some r -> r
          | None ->
              Domain.cpu_relax ();
              wait ()
        in
        wait ()
      in
      let r = submit Runtime.Message.Delete in
      check bool "delete ok" true (r.Runtime.Message.status = Runtime.Message.Ok);
      let r = submit Runtime.Message.Get in
      check bool "gone" true (r.Runtime.Message.status = Runtime.Message.Not_found);
      check bool "store empty" true ((Kvstore.Store.stats store).Kvstore.Store.items = 0))

let test_stop_is_idempotent () =
  with_server (fun server _ ->
      Runtime.Server.stop server;
      Runtime.Server.stop server;
      (* [with_server]'s finally will call it a third time. *)
      check bool "stopped" true true)

let test_submit_refused_after_stop () =
  let dataset = Workload.Dataset.create runtime_spec in
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:8
      ~value_arena_bytes:(8 * 1024 * 1024) ()
  in
  let server = Runtime.Server.start store in
  Runtime.Server.stop server;
  let accepted =
    Runtime.Server.submit server
      { Runtime.Message.id = 1L; op = Runtime.Message.Get;
        key = Workload.Dataset.key_name 0; submitted_at = 0.0; obs_slot = -1 }
  in
  ignore dataset;
  check bool "refused" false accepted

let test_config_validation () =
  let store = Kvstore.Store.create ~value_arena_bytes:(1 lsl 20) () in
  Alcotest.check_raises "cores" (Invalid_argument "Server.start: need at least 2 cores")
    (fun () ->
      ignore
        (Runtime.Server.start
           ~config:{ Runtime.Server.default_config with Runtime.Server.cores = 1 }
           store));
  (* Registry designs the native server does not run are refused by name,
     never served as some other design. *)
  List.iter
    (fun design ->
      let name = Kvserver.Design.name design in
      Alcotest.check_raises name (Runtime.Server.Unsupported_design { design = name })
        (fun () ->
          ignore
            (Runtime.Server.start
               ~config:{ Runtime.Server.default_config with Runtime.Server.design }
               store)))
    [ Kvserver.Design.hkh_ws; Kvserver.Design.sho ]

(* The control loop under a fault plan whose windows run on the server's
   wall clock from [start]: a stat-delay window, clean epochs, then a
   NaN-corrupted threshold under a clamp.  Each phase's traffic ends a few
   hundred milliseconds before the next window edge, and each check waits
   several 20 ms epochs after the traffic. *)
let test_controller_fault_windows () =
  let plan =
    {
      Fault.Plan.name = "ctrl";
      events =
        [
          Fault.Plan.Ctrl_delay { from_us = 0.0; until_us = 1.0e6 };
          Fault.Plan.Ctrl_corrupt
            { from_us = 2.0e6; until_us = infinity; mode = Fault.Plan.Nan };
        ];
    }
  in
  let config =
    {
      Runtime.Server.default_config with
      Runtime.Server.epoch_s = 0.02;
      clamp_threshold = Some 0.5;
      fault = Some (Fault.Inject.create ~seed:1 plan);
    }
  in
  let obs =
    Obs.Instrument.create ~spans:64 ~timeline:false ~cores:config.Runtime.Server.cores
      ~seed:1 ()
  in
  let dataset = Workload.Dataset.create runtime_spec in
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:8
      ~value_arena_bytes:(64 * 1024 * 1024) ()
  in
  Runtime.Loadgen.populate store dataset;
  let server = Runtime.Server.start ~obs ~config store in
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let seed = ref 100 in
  let traffic_until deadline =
    while elapsed () < deadline do
      incr seed;
      ignore (completed (Runtime.Loadgen.run ~server ~dataset ~requests:500 ~seed:!seed ()))
    done
  in
  let settle_until t = Unix.sleepf (Float.max 0.15 (t -. elapsed ())) in
  let stats () = Runtime.Server.stats server in
  Fun.protect
    ~finally:(fun () -> Runtime.Server.stop server)
    (fun () ->
      traffic_until 0.5;
      let s = stats () in
      check bool "stale ticks counted" true (s.Runtime.Server.ctrl_stale >= 1);
      check bool "plan kept under the stale window" true
        (s.Runtime.Server.threshold = infinity);
      (* The window's histograms were drained and discarded, so the clean
         ticks after it have nothing to learn from. *)
      settle_until 1.3;
      let s = stats () in
      check bool "stale histograms discarded" true (s.Runtime.Server.threshold = infinity);
      check bool "clean ticks after the window" true
        (s.Runtime.Server.epochs > s.Runtime.Server.ctrl_stale);
      let stale = s.Runtime.Server.ctrl_stale in
      traffic_until 1.6;
      settle_until 1.75;
      let good = (stats ()).Runtime.Server.threshold in
      check bool "a clean epoch learns a threshold" true (Float.is_finite good && good > 0.0);
      settle_until 2.1;
      let before = (stats ()).Runtime.Server.epochs in
      traffic_until 2.4;
      settle_until 2.4;
      let s = stats () in
      check bool "ticks under corruption" true (s.Runtime.Server.epochs > before);
      check (Alcotest.float 0.0) "NaN clamped to the last good threshold" good
        s.Runtime.Server.threshold;
      check int "no stale tick outside the window" stale s.Runtime.Server.ctrl_stale);
  let s = stats () in
  let log = obs.Obs.Instrument.decisions in
  check int "one decision per tick" s.Runtime.Server.epochs (Obs.Decision_log.length log);
  check bool "the stale window's decisions keep the initial plan" true
    (Obs.Decision_log.threshold log 0 = infinity)

(* Overload: a tight shed watermark plus every RX ring squeezed to a few
   slots.  Flooding the server must exercise both loss legs, and once
   [stop] has drained the rings every submission the server saw is in
   exactly one leg of its ledger. *)
let test_ledger_exact_under_overload () =
  let squeeze =
    {
      Fault.Plan.name = "squeeze";
      events =
        [
          Fault.Plan.Ring_squeeze
            { queue = Fault.Plan.all; from_us = 0.0; until_us = infinity; capacity = 8 };
        ];
    }
  in
  let config =
    {
      Runtime.Server.default_config with
      Runtime.Server.shed_watermark = Some 1;
      fault = Some (Fault.Inject.create ~seed:1 squeeze);
    }
  in
  let server =
    with_server ~config (fun s _ ->
        let n_keys = runtime_spec.Workload.Spec.n_keys in
        let id = ref 0 in
        let overloaded () =
          let l = (Runtime.Server.stats s).Runtime.Server.ledger in
          Obs.Ledger.leg l "rx_rejected" > 0 && Obs.Ledger.sum l [ "shed_small"; "shed_large" ] > 0
        in
        let rounds = ref 0 in
        while (not (overloaded ())) && !rounds < 50 do
          incr rounds;
          for _ = 1 to 2_000 do
            incr id;
            ignore
              (Runtime.Server.submit s
                 { Runtime.Message.id = Int64.of_int !id; op = Runtime.Message.Get;
                   key = Workload.Dataset.key_name (!id mod n_keys);
                   submitted_at = 0.0; obs_slot = -1 })
          done;
          while Runtime.Server.poll_reply s <> None do () done
        done;
        s)
  in
  let l = (Runtime.Server.stats server).Runtime.Server.ledger in
  check Alcotest.(result unit string) "exact after stop" (Ok ()) (Obs.Ledger.check l);
  check int "nothing in flight after stop" 0 (Obs.Ledger.leg l "in_flight");
  check bool "squeezed rings rejected" true (Obs.Ledger.leg l "rx_rejected" > 0);
  check bool "admission control shed" true
    (Obs.Ledger.sum l [ "shed_small"; "shed_large" ] > 0)

(* Starting a server builds nothing per key: the SCAN index waits for
   the first SCAN, so the heap a start adds does not grow with the
   store. *)
let test_start_builds_nothing_per_key () =
  let n = 50_000 in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let start_words keys =
    let store = Kvstore.Store.create ~value_arena_bytes:(8 lsl 20) () in
    for id = 0 to keys - 1 do
      Kvstore.Store.put store ~guard:`Lock (Workload.Dataset.key_name id) (Bytes.create 8)
    done;
    let before = live () in
    let server = Runtime.Server.start store in
    let words = live () - before in
    Runtime.Server.stop server;
    words
  in
  let empty = start_words 0 in
  let per_key = float_of_int (start_words n - empty) /. float_of_int n in
  if per_key > 0.5 then
    Alcotest.failf "start added %.2f heap words per key (bound 0.5)" per_key

(* SCANs on the native server amid the write-intensive mix: the first
   one builds the index while writers run.  Nothing is deleted and every
   SCAN starts at a stored key, so no SCAN finds nothing. *)
let test_native_scans_under_writes () =
  let spec =
    {
      runtime_spec with
      Workload.Spec.get_ratio = Workload.Spec.write_intensive.Workload.Spec.get_ratio;
    }
  in
  let server =
    with_server ~spec (fun server dataset ->
        let r =
          completed
            (Runtime.Loadgen.run ~scan_ratio:0.05 ~server ~dataset ~requests:20_000
               ~seed:17 ())
        in
        check int "every request answered" 20_000 r.Runtime.Loadgen.completed;
        check int "no Not_found" 0 r.Runtime.Loadgen.not_found;
        server)
  in
  let l = (Runtime.Server.stats server).Runtime.Server.ledger in
  check Alcotest.(result unit string) "exact ledger" (Ok ()) (Obs.Ledger.check l);
  check int "nothing in flight" 0 (Obs.Ledger.leg l "in_flight")

(* A worker that raises dies alone: the client's run ends in a typed
   stall naming what went unanswered, [stats] names the dead worker, and
   [stop] writes its requests off instead of waiting for them forever. *)
let test_worker_failure_is_a_stall () =
  let dataset = Workload.Dataset.create runtime_spec in
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:8
      ~value_arena_bytes:(16 * 1024 * 1024) ()
  in
  Runtime.Loadgen.populate store dataset;
  (* The injected fault: a request that breaks [Message]'s contract by
     carrying a flight-recorder slot the recorder does not have.  With the
     recorder's one slot taken, [submit] leaves that slot as given, and the
     worker that polls the request raises an index error — a stand-in for
     any bug that escapes the loop. *)
  let obs = Obs.Instrument.create ~spans:1 ~cores:Runtime.Server.default_config.cores ~seed:1 () in
  ignore (Obs.Recorder.try_sample obs.Obs.Instrument.recorder);
  let server = Runtime.Server.start ~obs store in
  let poison =
    { Runtime.Message.id = -1L; op = Runtime.Message.Get; key = Workload.Dataset.key_name 0;
      submitted_at = 0.0; obs_slot = 1_000_000 }
  in
  check bool "poison accepted" true (Runtime.Server.submit server poison);
  let t0 = Unix.gettimeofday () in
  while
    (Runtime.Server.stats server).Runtime.Server.failures = []
    && Unix.gettimeofday () -. t0 < 10.0
  do
    Unix.sleepf 0.001
  done;
  (match (Runtime.Server.stats server).Runtime.Server.failures with
  | [ (_, e) ] -> check bool ("died of the poison: " ^ e) true (String.length e > 0)
  | l -> Alcotest.failf "expected one dead worker, got %d" (List.length l));
  let stall =
    match Runtime.Loadgen.run ~server ~dataset ~requests:2_000 ~seed:13 () with
    | Ok _ -> Alcotest.fail "a dead worker's queue cannot answer every request"
    | Error s -> s
  in
  let unanswered = List.length stall.Runtime.Loadgen.unanswered in
  check bool "the stall names unanswered ids" true (unanswered > 0);
  check bool "the stall's ledger holds them in flight" true
    (Obs.Ledger.leg stall.Runtime.Loadgen.ledger "in_flight" >= unanswered);
  let stopped = Atomic.make false in
  let stopper =
    Domain.spawn (fun () ->
        Runtime.Server.stop server;
        Atomic.set stopped true)
  in
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () -. t0 < 10.0 do
    Unix.sleepf 0.001
  done;
  if not (Atomic.get stopped) then Alcotest.fail "stop hung on the dead worker";
  Domain.join stopper;
  let l = (Runtime.Server.stats server).Runtime.Server.ledger in
  check Alcotest.(result unit string) "exact after stop" (Ok ()) (Obs.Ledger.check l);
  check int "nothing in flight after stop" 0 (Obs.Ledger.leg l "in_flight");
  check int "the poison and every unanswered request are written off" (1 + unanswered)
    (Obs.Ledger.leg l "worker_failed")

(* A PUT bigger than the whole value arena is refused with [Overloaded]
   and counted in the [no_memory] leg; no worker dies of it, and the
   server keeps serving every queue. *)
let test_udp_oversized_put_refused () =
  let base_port = 48811 in
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:8 ~value_arena_bytes:(64 * 1024) ()
  in
  let udp = Runtime.Udp.start ~base_port store in
  let retry =
    { Proto.Retry.max_attempts = 1; timeout_us = 500_000.0; backoff = 2.0; cap_us = infinity }
  in
  let client =
    Runtime.Udp.Client.connect ~retry ~seed:5 ~base_port ~queues:(Runtime.Udp.queues udp) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Runtime.Udp.Client.close client;
      Runtime.Udp.stop udp)
    (fun () ->
      (match Runtime.Udp.Client.put client "huge" (Bytes.create 120_000) with
      | () -> Alcotest.fail "a 120 kB value cannot fit a 64 kB arena"
      | exception Runtime.Udp.Client.Timeout -> ());
      check int "the refusal reached the client" 1 (Runtime.Udp.Client.sheds client);
      (* Keys spread over every queue: each worker still answers. *)
      for i = 1 to 40 do
        let key = Printf.sprintf "small-%02d" i in
        Runtime.Udp.Client.put client key (Bytes.make i 'v');
        check (Alcotest.option Alcotest.int) key (Some i)
          (Option.map Bytes.length (Runtime.Udp.Client.get client key))
      done);
  let s = Runtime.Server.stats (Runtime.Udp.server udp) in
  check Alcotest.(list (pair int string)) "no dead worker" [] s.Runtime.Server.failures;
  check int "one PUT refused" 1 s.Runtime.Server.no_memory;
  check Alcotest.(result unit string) "exact ledger" (Ok ())
    (Obs.Ledger.check s.Runtime.Server.ledger);
  check int "no_memory leg" 1 (Obs.Ledger.leg s.Runtime.Server.ledger "no_memory")

(* ------------------------------------------------------------------ *)
(* Write-heavy stress on both transports: one worker per hardware thread,
   half the operations PUTs, a sixteenth of the keys large enough to cross
   to the large core.  A value's length names its key, and every length a
   GET returns must be one that was PUT to that key. *)

let stress_keys = 64

let stress_key i = Printf.sprintf "stress-%02d" i

let stress_len rng i =
  let m = if i mod 16 = 0 then 40 + Dsim.Rng.int rng 960 else Dsim.Rng.int rng 21 in
  i + (stress_keys * m)

(* Key index -> every length ever written to it; shared by client
   domains. *)
type reference = { written : (int, unit) Hashtbl.t array; lock : Mutex.t }

let stress_store () =
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:8
      ~value_arena_bytes:(64 * 1024 * 1024) ()
  in
  let written = Array.init stress_keys (fun _ -> Hashtbl.create 64) in
  for i = 0 to stress_keys - 1 do
    Kvstore.Store.put store ~guard:`Lock (stress_key i) (Bytes.create i);
    Hashtbl.replace written.(i) i ()
  done;
  (store, { written; lock = Mutex.create () })

let note_put r i len =
  Mutex.lock r.lock;
  Hashtbl.replace r.written.(i) len ();
  Mutex.unlock r.lock

let was_put r i len =
  Mutex.lock r.lock;
  let b = Hashtbl.mem r.written.(i) len in
  Mutex.unlock r.lock;
  b

type stress_op = Put of int | Get | Delete

let stress_op rng i =
  match Dsim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 | 4 -> Put (stress_len rng i)
  | 5 -> Delete
  | _ -> Get

(* Short epochs, so the threshold settles and large requests cross cores
   however fast the run goes. *)
let stress_config () =
  {
    Runtime.Server.default_config with
    Runtime.Server.cores = Runtime.Server.max_cores ();
    epoch_s = 0.005;
  }

(* After [stop]: exact ledger, no dead worker, and every surviving value
   has a length that was written to its key. *)
let stress_verdict ~what server store r ~wrong =
  let s = Runtime.Server.stats server in
  check Alcotest.(result unit string) (what ^ ": exact ledger") (Ok ())
    (Obs.Ledger.check s.Runtime.Server.ledger);
  check int (what ^ ": nothing in flight") 0
    (Obs.Ledger.leg s.Runtime.Server.ledger "in_flight");
  check Alcotest.(list (pair int string)) (what ^ ": no dead worker") []
    s.Runtime.Server.failures;
  check int (what ^ ": wrong GET lengths") 0 wrong;
  check bool (what ^ ": large requests crossed cores") true (s.Runtime.Server.handoffs > 0);
  for i = 0 to stress_keys - 1 do
    match Kvstore.Store.size_of store (stress_key i) with
    | Some len when not (was_put r i len) ->
        Alcotest.failf "%s: key %d holds %d bytes, never written" what i len
    | Some _ | None -> ()
  done

let stress_in_process seed () =
  let store, r = stress_store () in
  let server = Runtime.Server.start ~config:(stress_config ()) store in
  let rng = Dsim.Rng.create seed in
  let outstanding = Hashtbl.create 64 in
  let wrong = ref 0 in
  let last_progress = ref (Unix.gettimeofday ()) in
  let poll () =
    match Runtime.Server.poll_reply server with
    | Some reply ->
        last_progress := Unix.gettimeofday ();
        let id = reply.Runtime.Message.request_id in
        (match (Hashtbl.find outstanding id, reply.Runtime.Message.value) with
        | (i, Get), Some v -> if not (was_put r i (Bytes.length v)) then incr wrong
        | _ -> ());
        Hashtbl.remove outstanding id
    | None ->
        if Unix.gettimeofday () -. !last_progress > 10.0 then
          Alcotest.failf "no reply for 10 s with %d outstanding" (Hashtbl.length outstanding);
        Domain.cpu_relax ()
  in
  Fun.protect
    ~finally:(fun () -> Runtime.Server.stop server)
    (fun () ->
      for n = 1 to 20_000 do
        while Hashtbl.length outstanding >= 64 do poll () done;
        let i = Dsim.Rng.int rng stress_keys in
        let op = stress_op rng i in
        let req =
          { Runtime.Message.id = Int64.of_int n;
            op =
              (match op with
              | Put len -> Runtime.Message.Put (Bytes.create len)
              | Get -> Runtime.Message.Get
              | Delete -> Runtime.Message.Delete);
            key = stress_key i; submitted_at = 0.0; obs_slot = -1 }
        in
        (match op with Put len -> note_put r i len | Get | Delete -> ());
        Hashtbl.replace outstanding req.Runtime.Message.id (i, op);
        while not (Runtime.Server.submit server req) do poll () done
      done;
      while Hashtbl.length outstanding > 0 do poll () done);
  stress_verdict ~what:"in-process" server store r ~wrong:!wrong

let stress_udp seed () =
  let store, r = stress_store () in
  let config = stress_config () in
  let base_port = 48411 + (100 * seed) in
  let udp = Runtime.Udp.start ~config ~base_port store in
  let client c =
    Domain.spawn (fun () ->
        let client =
          Runtime.Udp.Client.connect ~seed:((10 * seed) + c) ~base_port
            ~queues:config.Runtime.Server.cores ()
        in
        Fun.protect
          ~finally:(fun () -> Runtime.Udp.Client.close client)
          (fun () ->
            let rng = Dsim.Rng.create ((100 * seed) + c) in
            let wrong = ref 0 in
            for _ = 1 to 1_500 do
              let i = Dsim.Rng.int rng stress_keys in
              match stress_op rng i with
              | Put len ->
                  note_put r i len;
                  Runtime.Udp.Client.put client (stress_key i) (Bytes.create len)
              | Delete -> ignore (Runtime.Udp.Client.delete client (stress_key i))
              | Get -> (
                  match Runtime.Udp.Client.get client (stress_key i) with
                  | Some v -> if not (was_put r i (Bytes.length v)) then incr wrong
                  | None -> ())
            done;
            !wrong))
  in
  let wrong =
    Fun.protect
      ~finally:(fun () -> Runtime.Udp.stop udp)
      (fun () -> List.fold_left (fun acc d -> acc + Domain.join d) 0 [ client 0; client 1 ])
  in
  stress_verdict ~what:"udp" (Runtime.Udp.server udp) store r ~wrong

(* ------------------------------------------------------------------ *)
(* UDP front end *)

let with_udp ?(base_port = 48111) f =
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:8
      ~value_arena_bytes:(32 * 1024 * 1024) ()
  in
  let udp = Runtime.Udp.start ~base_port store in
  let client =
    Runtime.Udp.Client.connect ~base_port ~queues:(Runtime.Udp.queues udp) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Runtime.Udp.Client.close client;
      Runtime.Udp.stop udp)
    (fun () -> f udp client store)

let test_udp_roundtrip () =
  with_udp (fun _udp client _store ->
      Runtime.Udp.Client.put client "hello" (Bytes.of_string "world");
      check (Alcotest.option Alcotest.string) "get" (Some "world")
        (Option.map Bytes.to_string (Runtime.Udp.Client.get client "hello"));
      check (Alcotest.option Alcotest.string) "miss" None
        (Option.map Bytes.to_string (Runtime.Udp.Client.get client "absent"));
      check bool "delete present" true (Runtime.Udp.Client.delete client "hello");
      check bool "delete absent" false (Runtime.Udp.Client.delete client "hello");
      check (Alcotest.option Alcotest.string) "gone" None
        (Option.map Bytes.to_string (Runtime.Udp.Client.get client "hello")))

let test_udp_large_value_fragmentation () =
  with_udp ~base_port:48211 (fun _udp client _store ->
      (* ~80 fragments each way. *)
      let big = Bytes.init 120_000 (fun i -> Char.chr (i mod 251)) in
      Runtime.Udp.Client.put client "blob" big;
      match Runtime.Udp.Client.get client "blob" with
      | Some v -> check bool "intact" true (Bytes.equal v big)
      | None -> Alcotest.fail "blob lost")

let test_udp_many_operations () =
  with_udp ~base_port:48311 (fun udp client store ->
      for i = 1 to 300 do
        Runtime.Udp.Client.put client
          (Printf.sprintf "k%03d" i)
          (Bytes.make (1 + (i mod 1400)) 'x')
      done;
      for i = 1 to 300 do
        match Runtime.Udp.Client.get client (Printf.sprintf "k%03d" i) with
        | Some v -> check int "size" (1 + (i mod 1400)) (Bytes.length v)
        | None -> Alcotest.failf "k%03d lost" i
      done;
      check int "store item count" 300 (Kvstore.Store.stats store).Kvstore.Store.items;
      (* Every op went through the size-aware scheduler. *)
      let stats = Runtime.Server.stats (Runtime.Udp.server udp) in
      check int "server served the RPCs" 600
        (Array.fold_left ( + ) 0 stats.Runtime.Server.served))

(* A raw UDP client: requests with ids the test chooses, replies read
   into one fixed buffer. *)
let raw_socket () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.setsockopt_int sock Unix.SO_RCVBUF (4 * 1024 * 1024);
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 2.0;
  sock

let raw_send sock ~port (req : Proto.Wire.request) =
  List.iter
    (fun frag ->
      ignore
        (Unix.sendto sock frag 0 (Bytes.length frag) []
           (Unix.ADDR_INET (Unix.inet_addr_loopback, port))))
    (Proto.Fragment.split ~msg_id:req.Proto.Wire.id (Proto.Wire.encode_request req))

let raw_rpc sock ~port ~id op key value =
  raw_send sock ~port
    { Proto.Wire.id; op; key; value; client_ts = Int64.neg id; target_rx = 0 };
  let reasm = Proto.Fragment.create_reassembler () and buf = Bytes.create 65536 in
  let rec await () =
    match Unix.recv sock buf 0 (Bytes.length buf) [] with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.failf "no reply to request %Ld" id
    | len -> (
        match Proto.Fragment.offer reasm (Bytes.sub buf 0 len) with
        | Some (msg_id, msg) when msg_id = id -> (
            match Proto.Wire.decode_reply msg with
            | Ok r -> r
            | Error e -> Alcotest.failf "bad reply: %a" Proto.Wire.pp_error e)
        | Some _ | None -> await ())
  in
  await ()

let udp_stats udp = Runtime.Server.stats (Runtime.Udp.server udp)

let served udp = Array.fold_left ( + ) 0 (udp_stats udp).Runtime.Server.served

(* GETs whose encoded reply is one byte under, exactly at and one byte
   over a fragment's payload, and one of ~350 fragments, come back byte
   for byte. *)
let test_udp_fragment_boundaries () =
  with_udp ~base_port:49011 (fun _udp client _store ->
      let fits = Proto.Fragment.max_fragment_payload - Proto.Wire.reply_header_size in
      List.iter
        (fun len ->
          let key = Printf.sprintf "v%d" len in
          let value = Bytes.init len (fun i -> Char.chr (((i * 7) + len) land 0xFF)) in
          Runtime.Udp.Client.put client key value;
          match Runtime.Udp.Client.get client key with
          | Some v -> check Alcotest.bytes (key ^ " intact") value v
          | None -> Alcotest.failf "%s lost" key)
        [ fits - 1; fits; fits + 1; 500_000 ])

(* A retransmitted mutation is replayed from the cache, even after a later
   write by another id; a retransmitted read runs again. *)
let test_udp_replays_mutations_only () =
  let base_port = 49111 in
  with_udp ~base_port (fun udp _client store ->
      let sock = raw_socket () in
      Fun.protect
        ~finally:(fun () -> Unix.close sock)
        (fun () ->
          let rpc = raw_rpc sock ~port:base_port in
          let v1 = Bytes.of_string "first" and v2 = Bytes.of_string "second" in
          let r1 = rpc ~id:1L Proto.Wire.Put "k" (Some v1) in
          ignore (rpc ~id:2L Proto.Wire.Put "k" (Some v2));
          let again = rpc ~id:1L Proto.Wire.Put "k" (Some v1) in
          check bool "the same reply" true (again = r1);
          check (Alcotest.option Alcotest.bytes) "the later value stays" (Some v2)
            (Kvstore.Store.get store "k");
          check int "the retransmitted PUT did not run" 2 (served udp);
          let get () = (rpc ~id:10L Proto.Wire.Get "k" None).Proto.Wire.value in
          check (Alcotest.option Alcotest.bytes) "read" (Some v2) (get ());
          let v3 = Bytes.of_string "third" in
          ignore (rpc ~id:11L Proto.Wire.Put "k" (Some v3));
          check (Alcotest.option Alcotest.bytes) "a retransmitted GET reads anew" (Some v3)
            (get ());
          check int "the retransmitted GET ran" 5 (served udp)))

(* A PUT without a value and a SCAN without a count are malformed: both
   are dropped unserved, and the stored value stays. *)
let test_udp_malformed_dropped () =
  let base_port = 49511 in
  with_udp ~base_port (fun udp _client store ->
      let sock = raw_socket () in
      Fun.protect
        ~finally:(fun () -> Unix.close sock)
        (fun () ->
          let rpc = raw_rpc sock ~port:base_port in
          let v = Bytes.of_string "intact" in
          ignore (rpc ~id:1L Proto.Wire.Put "k" (Some v));
          let before = served udp in
          List.iter
            (fun (id, op) ->
              raw_send sock ~port:base_port
                {
                  Proto.Wire.id;
                  op;
                  key = "k";
                  value = None;
                  client_ts = 0L;
                  target_rx = 0;
                })
            [ (2L, Proto.Wire.Put); (3L, Proto.Wire.Scan) ];
          (* The same queue reads datagrams in order: this reply comes
             after both were read. *)
          let r = rpc ~id:4L Proto.Wire.Get "k" None in
          check (Alcotest.option Alcotest.bytes) "the GET reads the value" (Some v)
            r.Proto.Wire.value;
          check (Alcotest.option Alcotest.bytes) "the stored value is intact" (Some v)
            (Kvstore.Store.get store "k");
          check int "only the GET was served" (before + 1) (served udp)))

(* A well-formed SCAN over UDP carries its entry count as a 4-byte
   little-endian value.  It is served: [Ok] over a populated range,
   [Not_found] past the last key.  A count above 0xFFFFFF is malformed and
   dropped unserved. *)
let test_udp_scan () =
  let base_port = 49611 in
  with_udp ~base_port (fun udp _client _store ->
      let sock = raw_socket () in
      Fun.protect
        ~finally:(fun () -> Unix.close sock)
        (fun () ->
          let rpc = raw_rpc sock ~port:base_port in
          List.iteri
            (fun i key ->
              ignore (rpc ~id:(Int64.of_int (i + 1)) Proto.Wire.Put key (Some (Bytes.of_string key))))
            [ "s1"; "s2"; "s3" ];
          let count n =
            let b = Bytes.create 4 in
            Bytes.set_int32_le b 0 (Int32.of_int n);
            b
          in
          let status r =
            match r.Proto.Wire.status with
            | Proto.Wire.Ok -> "Ok"
            | Proto.Wire.Not_found -> "Not_found"
            | Proto.Wire.Overloaded -> "Overloaded"
          in
          let before = served udp in
          check Alcotest.string "a populated range" "Ok"
            (status (rpc ~id:10L Proto.Wire.Scan "s" (Some (count 2))));
          check int "the SCAN was served" (before + 1) (served udp);
          check Alcotest.string "past the last key" "Not_found"
            (status (rpc ~id:11L Proto.Wire.Scan "t" (Some (count 2))));
          check int "the empty SCAN was served" (before + 2) (served udp);
          raw_send sock ~port:base_port
            {
              Proto.Wire.id = 12L;
              op = Proto.Wire.Scan;
              key = "s";
              value = Some (count 0x1000000);
              client_ts = 0L;
              target_rx = 0;
            };
          (* The same queue reads datagrams in order: this reply comes
             after the oversized SCAN was read. *)
          check Alcotest.string "the GET after it" "Ok"
            (status (rpc ~id:13L Proto.Wire.Get "s1" None));
          check int "the oversized SCAN was dropped" (before + 3) (served udp)))

(* An [Overloaded] reply is not cached: the retransmission runs again. *)
let test_udp_overloaded_not_cached () =
  let base_port = 49211 in
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:8 ~value_arena_bytes:(64 * 1024) ()
  in
  let udp = Runtime.Udp.start ~base_port store in
  let sock = raw_socket () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close sock;
      Runtime.Udp.stop udp)
    (fun () ->
      for _ = 1 to 2 do
        let r =
          raw_rpc sock ~port:base_port ~id:7L Proto.Wire.Put "huge"
            (Some (Bytes.create 100_000))
        in
        check bool "refused" true (r.Proto.Wire.status = Proto.Wire.Overloaded)
      done);
  check int "both copies ran" 2 (udp_stats udp).Runtime.Server.no_memory

(* One domain rewrites a key with two fill patterns of different lengths in
   one slab size class, so a freed region is reused by the other pattern
   while a GET may be copying it.  Every GET must return one whole pattern:
   the optimistic read retries a torn copy, and a worker's reused TX buffer
   carries no bytes of an earlier reply. *)
let test_udp_no_torn_reads () =
  with_udp ~base_port:49311 (fun _udp client store ->
      let a = Bytes.make 262_144 'a' and b = Bytes.make 131_073 'b' in
      Kvstore.Store.put store ~guard:`Lock "torn" a;
      let stop = Atomic.make false in
      let writer =
        Domain.spawn (fun () ->
            (* Random, not alternating: the slab's free list would give
               each pattern a region of its own. *)
            let rng = Dsim.Rng.create 17 and n = ref 0 in
            while not (Atomic.get stop) do
              Kvstore.Store.put store ~guard:`Lock "torn"
                (if Dsim.Rng.int rng 2 = 0 then a else b);
              incr n
            done;
            !n)
      in
      let torn = ref 0 in
      Fun.protect
        ~finally:(fun () -> Atomic.set stop true)
        (fun () ->
          for _ = 1 to 1_000 do
            match Runtime.Udp.Client.get client "torn" with
            | Some v when Bytes.equal v a || Bytes.equal v b -> ()
            | Some _ | None -> incr torn
          done);
      let writes = Domain.join writer in
      check bool "the writer ran" true (writes > 0);
      check int "torn or missing replies" 0 !torn)

(* The reply path allocates no value-sized copy per GET: 200 GETs of a
   256 KiB item allocate well under a tenth of the value in major words
   each.  A copy per GET would be 32 K words; the encode/fragment/dedup
   path this replaced made about two. *)
let test_udp_get_allocation () =
  let base_port = 49411 and value_len = 256 * 1024 and gets = 200 in
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:8
      ~value_arena_bytes:(4 * 1024 * 1024) ()
  in
  Kvstore.Store.put store ~guard:`Lock "big" (Bytes.make value_len 'v');
  let udp = Runtime.Udp.start ~base_port store in
  let sock = raw_socket () in
  let requests =
    Array.init gets (fun i ->
        Proto.Fragment.split ~msg_id:(Int64.of_int i)
          (Proto.Wire.encode_request
             {
               Proto.Wire.id = Int64.of_int i;
               op = Proto.Wire.Get;
               key = "big";
               value = None;
               client_ts = 0L;
               target_rx = 0;
             }))
  in
  let dest = Unix.ADDR_INET (Unix.inet_addr_loopback, base_port) in
  let buf = Bytes.create 65536 in
  let frags = Proto.Fragment.fragments_for (Proto.Wire.reply_header_size + value_len) in
  let send i =
    List.iter
      (fun f -> ignore (Unix.sendto sock f 0 (Bytes.length f) [] dest))
      requests.(i)
  in
  let major_before = (Gc.quick_stat ()).Gc.major_words in
  Fun.protect
    ~finally:(fun () ->
      Unix.close sock;
      Runtime.Udp.stop udp)
    (fun () ->
      for i = 0 to gets - 1 do
        send i;
        let got = ref 0 and retries = ref 0 in
        while !got < frags do
          match Unix.recv sock buf 0 (Bytes.length buf) [] with
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              incr retries;
              if !retries > 3 then Alcotest.failf "GET %d: no reply" i;
              got := 0;
              send i
          | len ->
              if len > Proto.Fragment.header_size
                 && Int64.to_int (Bytes.get_int64_le buf 1) = i
              then incr got
        done
      done);
  let words = (Gc.quick_stat ()).Gc.major_words -. major_before in
  let per_get = words /. float_of_int gets in
  let value_words = value_len / (Sys.word_size / 8) in
  Printf.printf "%.0f major words per GET of a %d-word value\n" per_get value_words;
  if per_get >= float_of_int value_words /. 10.0 then
    Alcotest.failf "%.0f major words per GET of a %d-word value" per_get value_words

(* An idle worker polls its socket and parks on it without allocating:
   in OCaml 5 each minor collection stops every domain, so allocation on
   an empty poll would stall the busy workers of a loaded server.  Only
   the controller's epoch tick allocates, a few words every 50 ms.
   [minor_collections] counts the collections of every domain. *)
let test_udp_idle_poll_allocates_nothing () =
  let store =
    Kvstore.Store.create ~partition_bits:2 ~bucket_bits:4 ~value_arena_bytes:(1 lsl 20) ()
  in
  let udp = Runtime.Udp.start ~base_port:49511 store in
  Fun.protect
    ~finally:(fun () -> Runtime.Udp.stop udp)
    (fun () ->
      Unix.sleepf 0.2;
      let before = (Gc.quick_stat ()).Gc.minor_collections in
      Unix.sleepf 2.0;
      let collections = (Gc.quick_stat ()).Gc.minor_collections - before in
      Printf.printf "%d minor collections in 2 s idle\n" collections;
      if collections > 2 then
        Alcotest.failf "%d minor collections in 2 s of an idle server (bound 2)" collections)

(* A busy worker allocates nothing either: single-datagram GETs are
   decoded where they were received, carried by pooled records and
   answered from the worker's TX buffer.  A 2-worker server answers GETs
   sent, pre-encoded, from raw sockets (eight in flight per queue); the
   sending loop allocates nothing itself, so [minor_collections] counts
   the server's.  Values of 1-1000 B keep every reply to one datagram, and
   the size-aware plan hands some GETs to a large core. *)
let udp_get_probe ~base_port ~gets =
  let store =
    Kvstore.Store.create ~partition_bits:2 ~bucket_bits:6 ~value_arena_bytes:(1 lsl 22) ()
  in
  let n_keys = 1000 in
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
        let key = Workload.Dataset.key_name id in
        List.hd
          (Proto.Fragment.split ~msg_id:(Int64.of_int id)
             (Proto.Wire.encode_request
                { Proto.Wire.id = Int64.of_int id; op = Proto.Wire.Get; key; value = None;
                  client_ts = 0L; target_rx = 0 })))
  in
  let buf = Bytes.create 65536 and window = 8 in
  (* [rounds] rounds of [window] GETs on each queue; returns the replies. *)
  let rec run rounds r replies =
    if r >= rounds then replies
    else begin
      for q = 0 to 1 do
        for k = 0 to window - 1 do
          let d = datagrams.((((r * window) + k) * 2 + q) mod n_keys) in
          ignore (Unix.send socks.(q) d 0 (Bytes.length d) [])
        done
      done;
      let got = ref 0 in
      for q = 0 to 1 do
        for _ = 1 to window do
          if Unix.recv socks.(q) buf 0 (Bytes.length buf) [] > 0 then incr got
        done
      done;
      run rounds (r + 1) (replies + !got)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Unix.close socks;
      Runtime.Udp.stop udp)
    (fun () ->
      let rounds = gets / (2 * window) in
      ignore (run (2000 / (2 * window)) 0 0);
      (* A minor collection at each end folds every domain's allocation
         into [minor_words]. *)
      Gc.minor ();
      let s0 = Gc.quick_stat () in
      let replies = run rounds 0 0 in
      let collections = (Gc.quick_stat ()).Gc.minor_collections - s0.Gc.minor_collections in
      Gc.minor ();
      let words = (Gc.quick_stat ()).Gc.minor_words -. s0.Gc.minor_words in
      let sent = rounds * 2 * window in
      (replies, sent, collections, words /. float_of_int sent))

let test_udp_busy_gets_allocate_nothing () =
  let replies, sent, collections, words = udp_get_probe ~base_port:49611 ~gets:20_000 in
  Printf.printf "%d minor collections over %d GETs, %.3f minor words per GET\n" collections
    sent words;
  check int "every GET answered" sent replies;
  if collections > 0 then
    Alcotest.failf "%d minor collections over %d single-datagram GETs (bound 0)" collections
      sent

let test_udp_dead_endpoint_fails_fast () =
  (* Nothing listens on the port, so the kernel answers the connected
     socket with ICMP port-unreachable: the client must surface
     [Server_dead] immediately — no retransmission schedule — and leave
     the retry budget untouched (crash failover is the caller's job;
     burning tokens on a dead endpoint would only delay it). *)
  let retry =
    { Proto.Retry.max_attempts = 3; timeout_us = 200_000.0; backoff = 2.0; cap_us = infinity }
  in
  let budget = Proto.Retry.Budget.create ~capacity:2.0 ~earn_per_call:0.0 () in
  let client =
    Runtime.Udp.Client.connect ~retry ~budget ~seed:9 ~base_port:48911
      ~queues:4 ()
  in
  Fun.protect
    ~finally:(fun () -> Runtime.Udp.Client.close client)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      for _ = 1 to 3 do
        try
          Runtime.Udp.Client.put client "k" (Bytes.of_string "v");
          Alcotest.fail "put against a dead endpoint must raise Server_dead"
        with Runtime.Udp.Client.Server_dead -> ()
      done;
      let elapsed_us = 1.0e6 *. (Unix.gettimeofday () -. t0) in
      check bool "fail-fast: well inside one retry timeout" true
        (elapsed_us < retry.Proto.Retry.timeout_us);
      check (Alcotest.float 1e-9) "retry budget untouched" 2.0
        (Proto.Retry.Budget.tokens budget))

let test_udp_silent_endpoint_backoff () =
  (* A silently dead endpoint — sockets bound but never answering, so no
     ICMP is generated — must still run the whole retransmission
     schedule and surface [Timeout].  The wall-clock wait brackets the
     schedule exactly — at least the fully-jittered minimum, at most the
     deterministic total (plus scheduling slack) — which fails both if
     wait_reply returns early (EINTR, spurious wakeups) and if a
     retransmission is skipped. *)
  let base_port = 48961 and queues = 4 in
  let silent =
    List.init queues (fun q ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + q));
        s)
  in
  let retry =
    { Proto.Retry.max_attempts = 3; timeout_us = 20_000.0; backoff = 2.0; cap_us = infinity }
  in
  let budget = Proto.Retry.Budget.create ~capacity:2.0 ~earn_per_call:0.0 () in
  let client =
    Runtime.Udp.Client.connect ~retry ~budget ~seed:9 ~base_port ~queues ()
  in
  Fun.protect
    ~finally:(fun () ->
      Runtime.Udp.Client.close client;
      List.iter Unix.close silent)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      (try
         Runtime.Udp.Client.put client "k" (Bytes.of_string "v");
         Alcotest.fail "put against a silent endpoint must time out"
       with Runtime.Udp.Client.Timeout -> ());
      let elapsed_us = 1.0e6 *. (Unix.gettimeofday () -. t0) in
      check bool "waited at least the jittered minimum" true
        (elapsed_us >= Proto.Retry.min_budget_us retry);
      check bool "waited at most the schedule + slack" true
        (elapsed_us <= Proto.Retry.total_budget_us retry +. 200_000.0);
      check int "no Overloaded replies involved" 0
        (Runtime.Udp.Client.sheds client);
      (* The two retransmissions drained the budget; the next call must
         fail fast instead of re-running the schedule. *)
      let t1 = Unix.gettimeofday () in
      (try
         Runtime.Udp.Client.put client "k" (Bytes.of_string "v");
         Alcotest.fail "second put must exhaust the retry budget"
       with Runtime.Udp.Client.Budget_exhausted -> ());
      let second_us = 1.0e6 *. (Unix.gettimeofday () -. t1) in
      check bool "fail-fast: one timeout, no retransmissions" true
        (second_us <= (2.0 *. retry.Proto.Retry.timeout_us) +. 200_000.0))

let () =
  Alcotest.run "runtime"
    [
      ( "udp",
        [
          Alcotest.test_case "roundtrip" `Quick test_udp_roundtrip;
          Alcotest.test_case "dead endpoint: Server_dead, budget intact"
            `Quick test_udp_dead_endpoint_fails_fast;
          Alcotest.test_case "silent endpoint: full backoff, then budget"
            `Quick test_udp_silent_endpoint_backoff;
          Alcotest.test_case "large value fragmentation" `Quick
            test_udp_large_value_fragmentation;
          Alcotest.test_case "many operations" `Slow test_udp_many_operations;
          Alcotest.test_case "oversized put refused" `Quick test_udp_oversized_put_refused;
          Alcotest.test_case "fragment boundaries" `Quick test_udp_fragment_boundaries;
          Alcotest.test_case "replays mutations only" `Quick
            test_udp_replays_mutations_only;
          Alcotest.test_case "overloaded not cached" `Quick test_udp_overloaded_not_cached;
          Alcotest.test_case "malformed requests dropped" `Quick test_udp_malformed_dropped;
          Alcotest.test_case "SCAN served, oversized count dropped" `Quick test_udp_scan;
          Alcotest.test_case "no torn reads" `Quick test_udp_no_torn_reads;
          Alcotest.test_case "GET allocates no value copy" `Quick test_udp_get_allocation;
          Alcotest.test_case "idle poll allocates nothing" `Quick
            test_udp_idle_poll_allocates_nothing;
          Alcotest.test_case "busy GETs allocate nothing" `Quick
            test_udp_busy_gets_allocate_nothing;
        ] );
      ( "server",
        [
          Alcotest.test_case "all requests answered" `Slow test_all_requests_answered;
          Alcotest.test_case "served counts conserve" `Slow test_served_counts_conserve;
          Alcotest.test_case "controller converges" `Slow test_controller_converges;
          Alcotest.test_case "keyhash mode" `Slow test_keyhash_mode;
          Alcotest.test_case "store consistent after run" `Slow
            test_store_consistent_after_run;
          Alcotest.test_case "concurrent clients" `Slow test_concurrent_clients;
          Alcotest.test_case "delete through scheduler" `Quick
            test_delete_through_scheduler;
          Alcotest.test_case "stop idempotent" `Quick test_stop_is_idempotent;
          Alcotest.test_case "submit after stop" `Quick test_submit_refused_after_stop;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "controller fault windows" `Quick
            test_controller_fault_windows;
          Alcotest.test_case "ledger exact under overload" `Quick
            test_ledger_exact_under_overload;
          Alcotest.test_case "worker failure is a stall, not a hang" `Quick
            test_worker_failure_is_a_stall;
          Alcotest.test_case "start builds nothing per key" `Quick
            test_start_builds_nothing_per_key;
          Alcotest.test_case "native SCANs under writes" `Slow
            test_native_scans_under_writes;
        ] );
      ( "stress",
        List.concat_map
          (fun seed ->
            [
              Alcotest.test_case (Printf.sprintf "in-process writes, seed %d" seed) `Slow
                (stress_in_process seed);
              Alcotest.test_case (Printf.sprintf "udp writes, seed %d" seed) `Slow
                (stress_udp seed);
            ])
          [ 1; 2; 3 ] );
    ]
