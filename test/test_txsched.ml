(* Tests for the frame-level round-robin TX scheduler — the piece that
   keeps small replies from serializing behind multi-hundred-frame large
   replies on the wire.  Driven by a real Dsim simulation so completion
   times are exact. *)

let check = Alcotest.check
let approx t = Alcotest.float t
let bool = Alcotest.bool
let int = Alcotest.int

(* 40 Gbps -> 0.0002 us/byte.  A full frame (1472B payload -> 1538 wire
   bytes) takes 0.3076 us. *)
let us_per_byte = 8.0e-3 /. 40.0

let full_frame_wire = Netsim.Frame.wire_bytes_for_frame_payload Netsim.Frame.max_udp_payload

(* The scheduler reports completions through one [on_complete] callback
   keyed by the sender's token; for test ergonomics, [send] below assigns
   tokens from a counter and dispatches to a per-send closure, recovering
   the old per-send [~on_complete] shape. *)
let cbs : (float -> unit) array ref = ref [||]
let ncb = ref 0

let make_sched sim ~queues =
  cbs := Array.make 64 (fun (_ : float) -> ());
  ncb := 0;
  (* Tie the creation knot the same way the engine does: [schedule] fires
     [frame_done] on the scheduler it is creating. *)
  let tx_cell = ref None in
  let tx =
    Netsim.Txsched.create ~gbps:40.0 ~queues
      ~schedule:(fun d ->
        Dsim.Sim.schedule_after sim d (fun () ->
            match !tx_cell with
            | Some tx -> Netsim.Txsched.frame_done tx
            | None -> assert false))
      ~now:(fun () -> Dsim.Sim.now sim)
      ~on_complete:(fun tok t -> !cbs.(tok) t)
  in
  tx_cell := Some tx;
  tx

let send tx ~queue ~payload_bytes ~on_complete =
  let tok = !ncb in
  incr ncb;
  if tok >= Array.length !cbs then begin
    let n = Array.make (2 * Array.length !cbs) (fun (_ : float) -> ()) in
    Array.blit !cbs 0 n 0 (Array.length !cbs);
    cbs := n
  end;
  !cbs.(tok) <- on_complete;
  Netsim.Txsched.send tx ~queue ~payload_bytes ~token:tok

let test_single_message_timing () =
  let sim = Dsim.Sim.create () in
  let tx = make_sched sim ~queues:4 in
  let done_at = ref 0.0 in
  send tx ~queue:0 ~payload_bytes:1000
    ~on_complete:(fun t -> done_at := t);
  Dsim.Sim.run_until_idle sim;
  let expected = float_of_int (Netsim.Frame.wire_bytes_for_payload 1000) *. us_per_byte in
  check (approx 1e-9) "one frame, wire time" expected !done_at;
  check int "bytes accounted" (Netsim.Frame.wire_bytes_for_payload 1000)
    (Netsim.Txsched.total_bytes tx)

let test_multi_frame_message () =
  let sim = Dsim.Sim.create () in
  let tx = make_sched sim ~queues:2 in
  let done_at = ref 0.0 in
  (* 3 full fragments + remainder. *)
  let payload = (3 * Netsim.Frame.max_udp_payload) + 100 in
  send tx ~queue:0 ~payload_bytes:payload
    ~on_complete:(fun t -> done_at := t);
  Dsim.Sim.run_until_idle sim;
  let expected = float_of_int (Netsim.Frame.wire_bytes_for_payload payload) *. us_per_byte in
  check (approx 1e-6) "all frames serialized" expected !done_at

let test_exact_multiple_payload () =
  (* A payload that is an exact multiple of the fragment size must not
     emit a zero-byte trailer frame. *)
  let sim = Dsim.Sim.create () in
  let tx = make_sched sim ~queues:1 in
  let done_at = ref 0.0 in
  let payload = 2 * Netsim.Frame.max_udp_payload in
  send tx ~queue:0 ~payload_bytes:payload
    ~on_complete:(fun t -> done_at := t);
  Dsim.Sim.run_until_idle sim;
  check (approx 1e-6) "exactly two frames"
    (float_of_int (2 * full_frame_wire) *. us_per_byte)
    !done_at;
  check int "no trailer bytes" (2 * full_frame_wire) (Netsim.Txsched.total_bytes tx)

let test_small_interleaves_past_large () =
  (* THE property: a 1-frame reply on queue 1, submitted while a 100-frame
     reply drains on queue 0, completes after ~2 frame times — not after
     100. *)
  let sim = Dsim.Sim.create () in
  let tx = make_sched sim ~queues:2 in
  let large_done = ref 0.0 and small_done = ref 0.0 in
  let large_payload = 100 * Netsim.Frame.max_udp_payload in
  send tx ~queue:0 ~payload_bytes:large_payload
    ~on_complete:(fun t -> large_done := t);
  send tx ~queue:1 ~payload_bytes:100
    ~on_complete:(fun t -> small_done := t);
  Dsim.Sim.run_until_idle sim;
  let frame_time = float_of_int full_frame_wire *. us_per_byte in
  check bool "small done within ~2 frame times" true (!small_done < 2.5 *. frame_time);
  (* The large message still transmits all of its frames. *)
  let large_alone =
    float_of_int (Netsim.Frame.wire_bytes_for_payload large_payload) *. us_per_byte
  in
  check bool "large takes at least its solo time" true (!large_done >= large_alone);
  check bool "large stretched by the interleaved frame" true
    (!large_done > large_alone)

let test_fifo_within_queue () =
  (* Messages on the SAME queue are FIFO: a later message cannot overtake. *)
  let sim = Dsim.Sim.create () in
  let tx = make_sched sim ~queues:2 in
  let first = ref 0.0 and second = ref 0.0 in
  send tx ~queue:0 ~payload_bytes:50_000 ~on_complete:(fun t -> first := t);
  send tx ~queue:0 ~payload_bytes:10 ~on_complete:(fun t -> second := t);
  Dsim.Sim.run_until_idle sim;
  check bool "same-queue order preserved" true (!second > !first)

let test_round_robin_fair_shares () =
  (* Two queues with equal standing backlogs finish within one frame of
     each other. *)
  let sim = Dsim.Sim.create () in
  let tx = make_sched sim ~queues:2 in
  let d0 = ref 0.0 and d1 = ref 0.0 in
  let payload = 50 * Netsim.Frame.max_udp_payload in
  send tx ~queue:0 ~payload_bytes:payload ~on_complete:(fun t -> d0 := t);
  send tx ~queue:1 ~payload_bytes:payload ~on_complete:(fun t -> d1 := t);
  Dsim.Sim.run_until_idle sim;
  let frame_time = float_of_int full_frame_wire *. us_per_byte in
  check bool "fair finish" true (abs_float (!d0 -. !d1) <= 1.5 *. frame_time)

let test_utilization_and_reset () =
  let sim = Dsim.Sim.create () in
  let tx = make_sched sim ~queues:1 in
  send tx ~queue:0 ~payload_bytes:1000 ~on_complete:(fun _ -> ());
  Dsim.Sim.run_until_idle sim;
  let busy = float_of_int (Netsim.Frame.wire_bytes_for_payload 1000) *. us_per_byte in
  check (approx 1e-9) "utilization" (busy /. 10.0) (Netsim.Txsched.utilization tx ~elapsed:10.0);
  Netsim.Txsched.reset_counters tx;
  check (approx 1e-9) "reset" 0.0 (Netsim.Txsched.utilization tx ~elapsed:10.0);
  check int "bytes reset" 0 (Netsim.Txsched.total_bytes tx)

let test_idle_restart () =
  (* The wire goes idle, then a later message starts immediately at its
     submission time. *)
  let sim = Dsim.Sim.create () in
  let tx = make_sched sim ~queues:1 in
  let d = ref 0.0 in
  send tx ~queue:0 ~payload_bytes:100 ~on_complete:(fun _ -> ());
  Dsim.Sim.schedule_at sim 50.0 (fun () ->
      send tx ~queue:0 ~payload_bytes:100 ~on_complete:(fun t -> d := t));
  Dsim.Sim.run_until_idle sim;
  let wire = float_of_int (Netsim.Frame.wire_bytes_for_payload 100) *. us_per_byte in
  check (approx 1e-9) "starts at submit time" (50.0 +. wire) !d;
  check bool "idle afterwards" true (not (Netsim.Txsched.busy tx));
  check int "nothing pending" 0 (Netsim.Txsched.pending_messages tx)

let prop_all_messages_complete =
  QCheck.Test.make ~name:"every submitted message completes exactly once" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 3) (int_bound 20_000)))
    (fun msgs ->
      let sim = Dsim.Sim.create () in
      let tx = make_sched sim ~queues:4 in
      let completions = ref 0 in
      List.iter
        (fun (q, payload) ->
          send tx ~queue:q ~payload_bytes:payload
            ~on_complete:(fun _ -> incr completions))
        msgs;
      Dsim.Sim.run_until_idle sim;
      !completions = List.length msgs && Netsim.Txsched.pending_messages tx = 0)

let prop_total_bytes_conserved =
  QCheck.Test.make ~name:"wire bytes = sum of message wire bytes" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (int_bound 50_000))
    (fun payloads ->
      let sim = Dsim.Sim.create () in
      let tx = make_sched sim ~queues:3 in
      List.iteri
        (fun i p ->
          send tx ~queue:(i mod 3) ~payload_bytes:p
            ~on_complete:(fun _ -> ()))
        payloads;
      Dsim.Sim.run_until_idle sim;
      let expected =
        List.fold_left (fun acc p -> acc + Netsim.Frame.wire_bytes_for_payload p) 0 payloads
      in
      Netsim.Txsched.total_bytes tx = expected)

let prop_single_queue_matches_txlink =
  (* With one queue and back-to-back submissions, frame-level scheduling
     degenerates to the simple FIFO line model: both models must give the
     same completion time for the last message. *)
  QCheck.Test.make ~name:"single queue degenerates to Txlink" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (int_bound 50_000))
    (fun payloads ->
      let sim = Dsim.Sim.create () in
      let tx = make_sched sim ~queues:1 in
      let last_sched = ref 0.0 in
      List.iter
        (fun p ->
          send tx ~queue:0 ~payload_bytes:p
            ~on_complete:(fun t -> last_sched := t))
        payloads;
      Dsim.Sim.run_until_idle sim;
      let link = Txlink.create ~gbps:40.0 in
      let last_link =
        List.fold_left
          (fun _ p ->
            Txlink.transmit link ~now:0.0
              ~bytes:(Netsim.Frame.wire_bytes_for_payload p))
          0.0 payloads
      in
      abs_float (!last_sched -. last_link) < 1e-6)

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "txsched"
    [
      ( "timing",
        [
          Alcotest.test_case "single message" `Quick test_single_message_timing;
          Alcotest.test_case "multi frame" `Quick test_multi_frame_message;
          Alcotest.test_case "exact multiple payload" `Quick test_exact_multiple_payload;
          Alcotest.test_case "idle restart" `Quick test_idle_restart;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "small interleaves past large" `Quick
            test_small_interleaves_past_large;
          Alcotest.test_case "fifo within queue" `Quick test_fifo_within_queue;
          Alcotest.test_case "round robin fairness" `Quick test_round_robin_fair_shares;
        ] );
      ( "accounting",
        [ Alcotest.test_case "utilization + reset" `Quick test_utilization_and_reset ]
        @ qsuite
            [ prop_all_messages_complete; prop_total_bytes_conserved;
              prop_single_queue_matches_txlink ] );
    ]
