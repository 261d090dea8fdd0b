(* Tests for the network substrate: framing arithmetic, lock-free ring,
   FIFO, the FIFO line model of test/txlink.ml and the NIC's RX queues. *)

open Netsim

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Frame *)

let test_frame_constants () =
  check int "max udp payload" 1472 Frame.max_udp_payload

let test_frames_for_payload () =
  check int "0 bytes -> 1 frame" 1 (Frame.frames_for_payload 0);
  check int "1 byte" 1 (Frame.frames_for_payload 1);
  check int "exactly one frame" 1 (Frame.frames_for_payload 1472);
  check int "one byte over" 2 (Frame.frames_for_payload 1473);
  check int "500KB" ((500_000 + 1471) / 1472) (Frame.frames_for_payload 500_000);
  Alcotest.check_raises "negative" (Invalid_argument "Frame.frames_for_payload: negative size")
    (fun () -> ignore (Frame.frames_for_payload (-1)))

let test_wire_bytes () =
  (* UDP 8 + IPv4 20 + Ethernet header and FCS 18 + preamble and
     inter-frame gap 20 *)
  let per_frame_overhead = 66 in
  check int "empty payload still costs headers" per_frame_overhead
    (Frame.wire_bytes_for_payload 0);
  check int "single full frame" (1472 + per_frame_overhead)
    (Frame.wire_bytes_for_payload 1472);
  check int "two frames" (1473 + (2 * per_frame_overhead))
    (Frame.wire_bytes_for_payload 1473)

let prop_wire_bytes_monotonic =
  QCheck.Test.make ~name:"wire bytes monotonic in payload" ~count:500
    QCheck.(pair (int_bound 2_000_000) (int_bound 2_000_000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Frame.wire_bytes_for_payload lo <= Frame.wire_bytes_for_payload hi)

let prop_frames_match_wire_bytes =
  QCheck.Test.make ~name:"wire bytes consistent with frame count" ~count:500
    QCheck.(int_bound 2_000_000)
    (fun n ->
      (* UDP 8 + IPv4 20 + Ethernet header and FCS 18 + preamble and
         inter-frame gap 20 *)
      let per_frame_overhead = 66 in
      Frame.wire_bytes_for_payload n
      = n + (Frame.frames_for_payload n * per_frame_overhead))

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_capacity_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Ring.create: capacity must be a power of two >= 2") (fun () ->
      ignore (Ring.create ~capacity:3));
  Alcotest.check_raises "capacity 1"
    (Invalid_argument "Ring.create: capacity must be a power of two >= 2") (fun () ->
      ignore (Ring.create ~capacity:1))

let test_ring_fifo_order () =
  let r = Ring.create ~capacity:8 in
  for i = 1 to 8 do
    check bool "push succeeds" true (Ring.try_push r i)
  done;
  check bool "push on full fails" false (Ring.try_push r 9);
  for i = 1 to 8 do
    check (Alcotest.option int) "pop order" (Some i) (Ring.try_pop r)
  done;
  check (Alcotest.option int) "pop on empty" None (Ring.try_pop r)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 in
  for round = 0 to 99 do
    assert (Ring.try_push r round);
    assert (Ring.try_push r (round + 1000));
    check (Alcotest.option int) "wrap pop 1" (Some round) (Ring.try_pop r);
    check (Alcotest.option int) "wrap pop 2" (Some (round + 1000)) (Ring.try_pop r)
  done;
  check bool "empty at end" true (Ring.is_empty r)

let test_ring_concurrent () =
  (* Two producer domains, two consumer domains; every pushed element must
     be popped exactly once. *)
  let r = Ring.create ~capacity:64 in
  let per_producer = 5_000 in
  let produced = 2 * per_producer in
  let consumed = Atomic.make 0 in
  let sum = Atomic.make 0 in
  let producer base =
    Domain.spawn (fun () ->
        for i = base to base + per_producer - 1 do
          while not (Ring.try_push r i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let consumer () =
    Domain.spawn (fun () ->
        let continue = ref true in
        while !continue do
          match Ring.try_pop r with
          | Some v ->
              ignore (Atomic.fetch_and_add sum v);
              ignore (Atomic.fetch_and_add consumed 1)
          | None -> if Atomic.get consumed >= produced then continue := false
        done)
  in
  let p1 = producer 0 and p2 = producer per_producer in
  let c1 = consumer () and c2 = consumer () in
  Domain.join p1;
  Domain.join p2;
  Domain.join c1;
  Domain.join c2;
  check int "all consumed" produced (Atomic.get consumed);
  check int "sum preserved" (produced * (produced - 1) / 2) (Atomic.get sum)

let prop_ring_drain_matches_fill =
  QCheck.Test.make ~name:"ring preserves sequence" ~count:100
    QCheck.(list_of_size Gen.(int_bound 64) small_nat)
    (fun xs ->
      let r = Ring.create ~capacity:128 in
      List.iter (fun x -> assert (Ring.try_push r x)) xs;
      let rec drain acc =
        match Ring.try_pop r with Some v -> drain (v :: acc) | None -> List.rev acc
      in
      drain [] = xs)

let test_ring_pop_exn () =
  let r = Ring.create ~capacity:4 in
  Alcotest.check_raises "empty raises" Ring.Empty (fun () ->
      ignore (Ring.pop_exn r));
  assert (Ring.try_push r 1);
  assert (Ring.try_push r 2);
  check int "pop_exn order 1" 1 (Ring.pop_exn r);
  check int "pop_exn order 2" 2 (Ring.pop_exn r);
  Alcotest.check_raises "empty again" Ring.Empty (fun () ->
      ignore (Ring.pop_exn r))

let test_ring_push_pop_alloc_free () =
  (* The point of the sentinel representation: steady-state
     try_push + pop_exn must not allocate (no [Some v] boxing).  The
     measurement itself boxes a couple of floats, hence the slack: any
     per-op allocation would cost >= 2000 words here. *)
  let r = Ring.create ~capacity:8 in
  assert (Ring.try_push r 1);
  ignore (Ring.pop_exn r);
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    assert (Ring.try_push r i);
    ignore (Ring.pop_exn r)
  done;
  let words = Gc.minor_words () -. before in
  check bool
    (Printf.sprintf "allocated %.0f words over 1000 push+pop cycles" words)
    true (words < 100.)

let test_ring_length_clamped () =
  let r = Ring.create ~capacity:4 in
  check int "empty" 0 (Ring.length r);
  assert (Ring.try_push r 1);
  assert (Ring.try_push r 2);
  check int "two elements" 2 (Ring.length r);
  ignore (Ring.pop_exn r);
  check int "after pop" 1 (Ring.length r);
  (* Wrap the counters well past capacity: length must stay exact. *)
  for i = 0 to 99 do
    assert (Ring.try_push r i);
    ignore (Ring.pop_exn r)
  done;
  check int "after wrap" 1 (Ring.length r);
  (* Concurrent snapshots must stay inside the documented [0, capacity]. *)
  let stop = Atomic.make false in
  let observer =
    Domain.spawn (fun () ->
        let ok = ref true in
        while not (Atomic.get stop) do
          let len = Ring.length r in
          if len < 0 || len > 4 then ok := false
        done;
        !ok)
  in
  for i = 0 to 49_999 do
    if Ring.try_push r i then ignore (Ring.try_pop r)
  done;
  Atomic.set stop true;
  check bool "all snapshots in [0, capacity]" true (Domain.join observer)

let test_ring_mpsc_stress () =
  (* 4 producer domains, 2 consumer domains: conservation (every pushed
     element popped exactly once) and per-producer FIFO within each
     consumer's pop sequence. *)
  let r = Ring.create ~capacity:32 in
  let producers = 4 and consumers = 2 in
  let per_producer = 5_000 in
  let produced = producers * per_producer in
  let consumed = Atomic.make 0 in
  let producer p =
    Domain.spawn (fun () ->
        for i = 0 to per_producer - 1 do
          while not (Ring.try_push r ((p * per_producer) + i)) do
            Domain.cpu_relax ()
          done
        done)
  in
  let consumer () =
    Domain.spawn (fun () ->
        let got = ref [] in
        let continue = ref true in
        while !continue do
          match Ring.try_pop r with
          | Some v ->
              got := v :: !got;
              ignore (Atomic.fetch_and_add consumed 1)
          | None -> if Atomic.get consumed >= produced then continue := false
        done;
        List.rev !got)
  in
  let ps = List.init producers producer in
  let cs = List.init consumers (fun _ -> consumer ()) in
  List.iter Domain.join ps;
  let seqs = List.map Domain.join cs in
  (* Conservation: the union of consumer sequences is exactly the pushed
     set. *)
  let all = List.concat seqs in
  check int "popped count" produced (List.length all);
  let sorted = List.sort Int.compare all in
  check bool "every value exactly once" true
    (List.mapi (fun i v -> i = v) sorted |> List.for_all Fun.id);
  (* Per-producer FIFO within each consumer. *)
  List.iter
    (fun seq ->
      let last = Array.make producers (-1) in
      List.iter
        (fun v ->
          let p = v / per_producer in
          check bool "producer order preserved" true (v > last.(p));
          last.(p) <- v)
        seq)
    seqs

(* Specialized default vs [Make (Atomic_ops.Native)]: same observable
   behaviour on random push/pop programs (the bench guard's correctness
   half — the default exists only to avoid functor indirection). *)
module NativeRing = Ring.Make (Atomic_ops.Native)

let prop_ring_functor_equivalence =
  QCheck.Test.make ~name:"Make(Native) equivalent to default" ~count:200
    QCheck.(list_of_size Gen.(int_bound 100) (option small_nat))
    (fun ops ->
      (* [Some v] = push v, [None] = pop. *)
      let d = Ring.create ~capacity:8 in
      let n = NativeRing.create ~capacity:8 in
      List.for_all
        (fun op ->
          match op with
          | Some v -> Ring.try_push d v = NativeRing.try_push n v
          | None -> Ring.try_pop d = NativeRing.try_pop n)
        ops
      && Ring.length d = NativeRing.length n
      && Ring.is_empty d = NativeRing.is_empty n)

let prop_ring_mpsc_conservation =
  (* Randomized domain counts/sizes: conservation under real parallelism. *)
  QCheck.Test.make ~name:"mpsc conservation" ~count:10
    QCheck.(pair (1 -- 4) (1 -- 200))
    (fun (producers, per_producer) ->
      let r = Ring.create ~capacity:16 in
      let produced = producers * per_producer in
      let consumed = Atomic.make 0 in
      let sum = Atomic.make 0 in
      let producer p =
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              while not (Ring.try_push r ((p * per_producer) + i)) do
                Domain.cpu_relax ()
              done
            done)
      in
      let consumer =
        Domain.spawn (fun () ->
            let continue = ref true in
            while !continue do
              match Ring.try_pop r with
              | Some v ->
                  ignore (Atomic.fetch_and_add sum v);
                  ignore (Atomic.fetch_and_add consumed 1)
              | None -> if Atomic.get consumed >= produced then continue := false
            done)
      in
      let ps = List.init producers producer in
      List.iter Domain.join ps;
      Domain.join consumer;
      Atomic.get consumed = produced
      && Atomic.get sum = produced * (produced - 1) / 2)

(* ------------------------------------------------------------------ *)
(* Fifo *)

let test_fifo_basic () =
  let f = Fifo.create ~dummy:"" () in
  check bool "fresh empty" true (Fifo.is_empty f);
  Fifo.push f "a";
  Fifo.push f "b";
  check int "length" 2 (Fifo.length f);
  check Alcotest.string "peek" "a" (Fifo.peek_exn f);
  check (Alcotest.option Alcotest.string) "pop" (Some "a") (Fifo.pop f);
  check (Alcotest.option Alcotest.string) "pop 2" (Some "b") (Fifo.pop f);
  check (Alcotest.option Alcotest.string) "pop empty" None (Fifo.pop f)

(* ------------------------------------------------------------------ *)
(* Txlink *)

let test_txlink_serialization () =
  let tx = Txlink.create ~gbps:40.0 in
  (* 5000 bytes at 40 Gbps = 1 µs. *)
  let done1 = Txlink.transmit tx ~now:0.0 ~bytes:5000 in
  check (Alcotest.float 1e-9) "first transmission" 1.0 done1;
  (* Second transmission queues behind the first. *)
  let done2 = Txlink.transmit tx ~now:0.5 ~bytes:5000 in
  check (Alcotest.float 1e-9) "second queues" 2.0 done2;
  (* After the line is idle, transmission starts at [now]. *)
  let done3 = Txlink.transmit tx ~now:10.0 ~bytes:5000 in
  check (Alcotest.float 1e-9) "idle restart" 11.0 done3;
  check int "byte accounting" 15000 (Txlink.total_bytes tx)

let test_txlink_utilization () =
  let tx = Txlink.create ~gbps:40.0 in
  ignore (Txlink.transmit tx ~now:0.0 ~bytes:5000);
  (* 1 µs busy over 4 µs elapsed = 25 %. *)
  check (Alcotest.float 1e-9) "utilization" 0.25 (Txlink.utilization tx ~elapsed:4.0);
  Txlink.reset_counters tx;
  check (Alcotest.float 1e-9) "reset" 0.0 (Txlink.utilization tx ~elapsed:4.0)

(* ------------------------------------------------------------------ *)
(* Nic *)

let test_nic_delivery () =
  let nic = Nic.create ~queues:4 ~dummy:"" in
  Nic.deliver nic ~queue:2 "req1";
  Nic.deliver nic ~queue:2 "req2";
  check int "queue length" 2 (Fifo.length (Nic.rx nic 2));
  check int "other queue untouched" 0 (Fifo.length (Nic.rx nic 0));
  check Alcotest.string "arrival order" "req1" (Fifo.pop_exn (Nic.rx nic 2));
  Alcotest.check_raises "no queues"
    (Invalid_argument "Nic.create: need at least one queue") (fun () ->
      ignore (Nic.create ~queues:0 ~dummy:""))

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "netsim"
    [
      ( "frame",
        [
          Alcotest.test_case "constants" `Quick test_frame_constants;
          Alcotest.test_case "frames for payload" `Quick test_frames_for_payload;
          Alcotest.test_case "wire bytes" `Quick test_wire_bytes;
        ]
        @ qsuite [ prop_wire_bytes_monotonic; prop_frames_match_wire_bytes ] );
      ( "ring",
        [
          Alcotest.test_case "capacity validation" `Quick test_ring_capacity_validation;
          Alcotest.test_case "fifo order" `Quick test_ring_fifo_order;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "pop_exn" `Quick test_ring_pop_exn;
          Alcotest.test_case "push+pop_exn allocation-free" `Quick
            test_ring_push_pop_alloc_free;
          Alcotest.test_case "length clamped" `Quick test_ring_length_clamped;
          Alcotest.test_case "concurrent domains" `Slow test_ring_concurrent;
          Alcotest.test_case "mpsc stress 4p/2c" `Slow test_ring_mpsc_stress;
        ]
        @ qsuite
            [
              prop_ring_drain_matches_fill;
              prop_ring_functor_equivalence;
              prop_ring_mpsc_conservation;
            ] );
      ("fifo", [ Alcotest.test_case "basic" `Quick test_fifo_basic ]);
      ( "txlink",
        [
          Alcotest.test_case "serialization" `Quick test_txlink_serialization;
          Alcotest.test_case "utilization" `Quick test_txlink_utilization;
        ] );
      ("nic", [ Alcotest.test_case "delivery" `Quick test_nic_delivery ]);
    ]
