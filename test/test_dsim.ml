(* Tests for the simulation substrate: RNG, distributions, event heap and
   the simulation engine. *)

open Dsim

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let approx tolerance = Alcotest.float tolerance

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 1234 and b = Rng.create 1234 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check bool "different seeds differ" true !differs

let test_rng_copy () =
  let a = Rng.create 99 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int64 "copy replays" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  (* The split stream must not equal the parent's continued stream. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check int "no collisions expected" 0 !same

let test_rng_int_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.fail "Rng.int out of bounds"
  done;
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_int_uniformity () =
  (* Loose chi-square-style check over 8 cells. *)
  let r = Rng.create 11 in
  let n = 80_000 and cells = 8 in
  let counts = Array.make cells 0 in
  for _ = 1 to n do
    let v = Rng.int r cells in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int n /. float_of_int cells in
  Array.iter
    (fun c ->
      let dev = abs_float (float_of_int c -. expected) /. expected in
      if dev > 0.05 then
        Alcotest.failf "cell deviates %.1f%% from uniform" (100.0 *. dev))
    counts

let test_rng_unit_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.unit_float r in
    if v < 0.0 || v >= 1.0 then Alcotest.fail "unit_float out of [0,1)"
  done

(* [advance t k] must leave [t] where [k] draws would: compared over the
   next few outputs, for k = 0, 1 and random k. *)
let same_stream a b =
  List.for_all (fun _ -> Rng.bits a = Rng.bits b) [ 1; 2; 3; 4 ]

let advanced_like_draws seed k =
  let drawn = Rng.create seed and jumped = Rng.create seed in
  for _ = 1 to k do
    ignore (Rng.bits drawn)
  done;
  Rng.advance jumped k;
  same_stream drawn jumped

let prop_rng_advance =
  QCheck.Test.make ~name:"advance k = k draws" ~count:300
    QCheck.(pair int (oneof [ always 0; always 1; int_bound 5000 ]))
    (fun (seed, k) -> advanced_like_draws seed k)

(* Counts whose product with the draw constant wraps many times over: the
   largest count composes with a few draws, and since the state has
   period 2^63 = 2 (max_int + 1), two largest jumps and two draws come
   back to the start. *)
let prop_rng_advance_wraps =
  QCheck.Test.make ~name:"advance near the 2^63 wrap" ~count:200
    QCheck.(pair int (int_bound 1000))
    (fun (seed, m) ->
      let whole = Rng.create seed and parts = Rng.create seed in
      Rng.advance whole max_int;
      Rng.advance parts (max_int - m);
      for _ = 1 to m do
        ignore (Rng.bits parts)
      done;
      let round = Rng.create seed and start = Rng.create seed in
      Rng.advance round max_int;
      Rng.advance round max_int;
      ignore (Rng.bits round);
      ignore (Rng.bits round);
      same_stream whole parts && same_stream round start)

let test_rng_advance_negative () =
  Alcotest.check_raises "negative count" (Invalid_argument "Rng.advance: negative count")
    (fun () -> Rng.advance (Rng.create 1) (-1))

(* [int_once] is [int]'s first draw: the same value when accepted, and
   exactly one draw consumed either way. *)
let prop_rng_int_once =
  QCheck.Test.make ~name:"int_once = one draw of int" ~count:500
    QCheck.(pair int (int_range 1 max_int))
    (fun (seed, n) ->
      let a = Rng.create seed and b = Rng.create seed in
      let once = Rng.int_once a n in
      let v = Rng.int b n in
      (once = v || once = -1) && 0 <= v && v < n
      && (once = -1 || same_stream a b))

(* A crafted stream whose draw 5 is rejected for n = 1387 (the small-size
   span): [int_once] reports it, and [int] answers from draw 6. *)
let test_rng_int_rejection () =
  let n = 1387 and draw = 5 in
  let seed = Rng_craft.seed_for ~draw ~out:Rng_craft.rejected_output in
  let g = Rng.create seed in
  Rng.advance g draw;
  check int "crafted output" Rng_craft.rejected_output (Rng.bits (Rng.copy g));
  let once = Rng.copy g and full = Rng.copy g and next = Rng.copy g in
  check int "int_once rejects" (-1) (Rng.int_once once n);
  Rng.advance next 1;
  check int "int draws again" (Rng.int_once next n) (Rng.int full n);
  check bool "int consumed two draws" true (same_stream full next)

let test_rng_exponential_mean () =
  let r = Rng.create 17 in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:5.0
  done;
  check (approx 0.1) "empirical mean" 5.0 (!sum /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Dist.Zipf *)

let test_zipf_prob_sums_to_one () =
  let z = Dist.Zipf.create ~n:1000 ~theta:0.99 () in
  let sum = ref 0.0 in
  for k = 0 to 999 do
    sum := !sum +. Dist.Zipf.prob z k
  done;
  check (approx 1e-9) "probabilities sum to 1" 1.0 !sum

let test_zipf_monotone () =
  let z = Dist.Zipf.create ~n:100 ~theta:0.9 () in
  for k = 0 to 98 do
    if Dist.Zipf.prob z k < Dist.Zipf.prob z (k + 1) then
      Alcotest.fail "zipf probabilities must be nonincreasing in rank"
  done

let test_zipf_sample_range_and_skew () =
  let n = 10_000 in
  let z = Dist.Zipf.create ~n ~theta:0.99 () in
  let r = Rng.create 23 in
  let draws = 100_000 in
  let rank0 = ref 0 in
  for _ = 1 to draws do
    let v = Dist.Zipf.sample z r in
    if v < 0 || v >= n then Alcotest.fail "zipf sample out of range";
    if v = 0 then incr rank0
  done;
  let expected = Dist.Zipf.prob z 0 in
  let got = float_of_int !rank0 /. float_of_int draws in
  (* Rank 0 is ~11% for n=10k, theta=.99; demand agreement within 10% rel. *)
  if abs_float (got -. expected) /. expected > 0.1 then
    Alcotest.failf "rank-0 frequency %.4f vs expected %.4f" got expected

let test_zipf_theta_zero_is_uniform () =
  let n = 16 in
  let z = Dist.Zipf.create ~n ~theta:0.0 () in
  List.iter
    (fun k -> check (approx 1e-9) "uniform prob" (1.0 /. float_of_int n)
        (Dist.Zipf.prob z k))
    [ 0; 7; 15 ]

let test_zipf_single_key () =
  let z = Dist.Zipf.create ~n:1 ~theta:0.5 () in
  let r = Rng.create 2 in
  for _ = 1 to 100 do
    check int "only rank 0" 0 (Dist.Zipf.sample z r)
  done

(* The normalizer and [eta] equal the sequential sum's bits whichever
   order the term blocks finish in: on the pool at 1-4 jobs (0: every
   round's tasks in reverse), at n on and around the block (32,768 terms)
   and round (4 blocks) boundaries and at random n. *)
let zipf_matches_oracle ~run n theta =
  let z = Dist.Zipf.create ~run ~n ~theta () in
  Int64.bits_of_float (Dist.Zipf.zetan z) = Int64.bits_of_float (Build_oracle.zeta n theta)
  && Int64.bits_of_float (Dist.Zipf.eta z) = Int64.bits_of_float (Build_oracle.eta n theta)

let zeta_block = 32_768

let prop_zipf_zeta_exact =
  QCheck.Test.make ~name:"zeta in blocks = sequential sum, bit for bit" ~count:40
    QCheck.(
      triple
        (oneof
           [
             oneofl
               [ 1; 2; zeta_block - 1; zeta_block; zeta_block + 1; (4 * zeta_block) + 1 ];
             int_range 1 300_000;
           ])
        (oneofl [ 0.0; 0.5; 0.99 ])
        (int_range 0 4))
    (fun (n, theta, jobs) ->
      let run = if jobs = 0 then Build_oracle.reverse_run else Build_oracle.par_run jobs in
      zipf_matches_oracle ~run n theta)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create ~dummy:"" () in
  Heap.add h ~time:3.0 ~seq:0 "c";
  Heap.add h ~time:1.0 ~seq:1 "a";
  Heap.add h ~time:2.0 ~seq:2 "b";
  let pop () = if Heap.is_empty h then "?" else Heap.pop h in
  check Alcotest.string "first" "a" (pop ());
  check Alcotest.string "second" "b" (pop ());
  check Alcotest.string "third" "c" (pop ());
  check bool "empty" true (Heap.is_empty h)

let test_heap_tie_break_by_seq () =
  let h = Heap.create ~dummy:"" () in
  Heap.add h ~time:1.0 ~seq:5 "later";
  Heap.add h ~time:1.0 ~seq:2 "earlier";
  check int "lowest seq first" 2 (Heap.min_seq h);
  check Alcotest.string "value" "earlier" (Heap.pop h);
  check Alcotest.string "then the later seq" "later" (Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted key order" ~count:200
    QCheck.(list (pair (float_bound_inclusive 1000.0) small_nat))
    (fun pairs ->
      let h = Heap.create ~dummy:0 () in
      List.iteri (fun i (t, _) -> Heap.add h ~time:t ~seq:i i) pairs;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc
        else begin
          let key = (Heap.min_time h, Heap.min_seq h) in
          ignore (Heap.pop h : int);
          drain (key :: acc)
        end
      in
      let popped = drain [] in
      let sorted = List.sort compare popped in
      popped = sorted)

let test_heap_peek () =
  let h = Heap.create ~dummy:0 () in
  Alcotest.check_raises "peek empty" (Invalid_argument "Heap.min_value: empty heap")
    (fun () -> ignore (Heap.min_value h));
  Heap.add h ~time:9.0 ~seq:0 42;
  check (approx 0.0) "peek time" 9.0 (Heap.min_time h);
  check int "peek value" 42 (Heap.min_value h);
  check int "peek does not remove" 1 (Heap.length h)

(* Random add/pop interleavings against a sorted-list model: every pop
   must return the live element with the least (time, seq) key, not just
   a fully-built heap drained at the end. *)
let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap interleaved add/pop matches model" ~count:300
    QCheck.(list (option (float_bound_inclusive 100.0)))
    (fun ops ->
      let h = Heap.create ~dummy:(-1) () in
      let model = ref [] (* ascending by (time, seq) *) in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some time ->
              Heap.add h ~time ~seq:!seq !seq;
              model := List.merge compare !model [ (time, !seq) ];
              incr seq;
              true
          | None -> (
              match (Heap.is_empty h, !model) with
              | true, [] -> true
              | false, (mt, ms) :: rest ->
                  model := rest;
                  let t = Heap.min_time h and s = Heap.min_seq h in
                  let v = Heap.pop h in
                  t = mt && s = ms && v = ms
              | false, [] | true, _ :: _ -> false))
        ops)

let test_heap_nonallocating_accessors () =
  let h = Heap.create ~dummy:"" () in
  Alcotest.check_raises "min_time empty"
    (Invalid_argument "Heap.min_time: empty heap") (fun () ->
      ignore (Heap.min_time h));
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty heap")
    (fun () -> ignore (Heap.pop h));
  Heap.add h ~time:3.0 ~seq:9 "x";
  check (approx 0.0) "min_time" 3.0 (Heap.min_time h);
  check int "min_seq" 9 (Heap.min_seq h);
  check Alcotest.string "pop" "x" (Heap.pop h)

let test_heap_capacity_steady_state () =
  let h = Heap.create ~dummy:0 () in
  for i = 1 to 64 do
    Heap.add h ~time:(float_of_int i) ~seq:i i
  done;
  for _ = 1 to 64 do
    ignore (Heap.pop h)
  done;
  let cap = Heap.capacity h in
  check bool "warmed capacity" true (cap >= 64);
  for i = 1 to 10_000 do
    Heap.add h ~time:(float_of_int (i land 0xFF)) ~seq:i i;
    ignore (Heap.pop h)
  done;
  check int "steady-state add/pop never grows" cap (Heap.capacity h)

let test_heap_clear_retains_capacity () =
  let h = Heap.create ~dummy:0 () in
  for i = 1 to 100 do
    Heap.add h ~time:(float_of_int i) ~seq:i i
  done;
  let cap = Heap.capacity h in
  Heap.clear h;
  check int "empty after clear" 0 (Heap.length h);
  check int "capacity retained" cap (Heap.capacity h);
  Heap.add h ~time:1.0 ~seq:0 7;
  check int "usable after clear" 1 (Heap.length h)

let test_heap_releases_values () =
  (* Regression: [pop] and [clear] must overwrite vacated value slots
     with [dummy].  The heap once left the last popped value (and, after
     [clear], the whole former contents) reachable through its backing
     array, pinning arbitrarily large closures across simulations. *)
  let h = Heap.create ~dummy:"" () in
  let wk = Weak.create 2 in
  (let v = Bytes.to_string (Bytes.make 64 'x') in
   Weak.set wk 0 (Some v);
   Heap.add h ~time:1.0 ~seq:0 v);
  (let v = Bytes.to_string (Bytes.make 64 'y') in
   Weak.set wk 1 (Some v);
   Heap.add h ~time:2.0 ~seq:1 v);
  ignore (Heap.pop h : string);
  Heap.clear h;
  Gc.full_major ();
  Gc.full_major ();
  check bool "popped value collected" true (Weak.get wk 0 = None);
  check bool "cleared value collected" true (Weak.get wk 1 = None)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_runs_in_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_at sim 5.0 (fun () -> log := 5 :: !log);
  Sim.schedule_at sim 1.0 (fun () -> log := 1 :: !log);
  Sim.schedule_at sim 3.0 (fun () -> log := 3 :: !log);
  Sim.run_until_idle sim;
  check (Alcotest.list int) "order" [ 1; 3; 5 ] (List.rev !log);
  check (approx 0.0) "clock at last event" 5.0 (Sim.now sim)

let test_sim_schedule_after () =
  let sim = Sim.create () in
  let fired_at = ref 0.0 in
  Sim.schedule_at sim 10.0 (fun () ->
      Sim.schedule_after sim 2.5 (fun () -> fired_at := Sim.now sim));
  Sim.run_until_idle sim;
  check (approx 1e-9) "relative scheduling" 12.5 !fired_at

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Sim.schedule_after sim 1.0 tick
  in
  Sim.schedule_at sim 0.0 tick;
  Sim.run sim ~until:10.5;
  (* Events at 0,1,...,10 fire: 11 total; the clock ends at [until]. *)
  check int "events within horizon" 11 !count;
  check (approx 1e-9) "clock stops at until" 10.5 (Sim.now sim);
  check int "one event still pending" 1 (Sim.pending_events sim)

let test_sim_rejects_past () =
  let sim = Sim.create () in
  Sim.schedule_at sim 5.0 (fun () ->
      match Sim.schedule_at sim 1.0 ignore with
      | () -> Alcotest.fail "scheduling in the past must raise"
      | exception Invalid_argument _ -> ());
  Sim.run_until_idle sim

let test_sim_same_time_fifo () =
  (* Events scheduled for the same instant run in scheduling order. *)
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule_at sim 1.0 (fun () -> log := i :: !log)
  done;
  Sim.run_until_idle sim;
  check (Alcotest.list int) "fifo at equal time" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_events_processed_counter () =
  let sim = Sim.create () in
  for i = 1 to 4 do
    Sim.schedule_at sim (float_of_int i) ignore
  done;
  Sim.run_until_idle sim;
  check int "processed" 4 (Sim.events_processed sim)

let () =
  Alcotest.run "dsim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniformity" `Slow test_rng_int_uniformity;
          Alcotest.test_case "unit_float range" `Quick test_rng_unit_float_range;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "advance refuses a negative count" `Quick
            test_rng_advance_negative;
          Alcotest.test_case "int rejection" `Quick test_rng_int_rejection;
        ]
        @ qsuite [ prop_rng_advance; prop_rng_advance_wraps; prop_rng_int_once ] );
      ( "zipf",
        [
          Alcotest.test_case "probs sum to 1" `Quick test_zipf_prob_sums_to_one;
          Alcotest.test_case "monotone" `Quick test_zipf_monotone;
          Alcotest.test_case "sample range and skew" `Slow test_zipf_sample_range_and_skew;
          Alcotest.test_case "theta 0 uniform" `Quick test_zipf_theta_zero_is_uniform;
          Alcotest.test_case "single key" `Quick test_zipf_single_key;
        ]
        @ qsuite [ prop_zipf_zeta_exact ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "tie break by seq" `Quick test_heap_tie_break_by_seq;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "non-allocating accessors" `Quick
            test_heap_nonallocating_accessors;
          Alcotest.test_case "steady-state capacity" `Quick
            test_heap_capacity_steady_state;
          Alcotest.test_case "releases values" `Quick test_heap_releases_values;
          Alcotest.test_case "clear retains capacity" `Quick
            test_heap_clear_retains_capacity;
        ]
        @ qsuite [ prop_heap_sorts; prop_heap_interleaved ] );
      ( "sim",
        [
          Alcotest.test_case "time order" `Quick test_sim_runs_in_time_order;
          Alcotest.test_case "schedule after" `Quick test_sim_schedule_after;
          Alcotest.test_case "run until" `Quick test_sim_run_until;
          Alcotest.test_case "rejects past" `Quick test_sim_rejects_past;
          Alcotest.test_case "same-time fifo" `Quick test_sim_same_time_fifo;
          Alcotest.test_case "events processed" `Quick test_sim_events_processed_counter;
        ] );
    ]
