(* Tests for the statistics library: vectors, quantiles, histograms,
   summaries, windows and reservoirs. *)

open Stats

let check = Alcotest.check
let int = Alcotest.int
let approx t = Alcotest.float t

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

(* ------------------------------------------------------------------ *)
(* Float_vec *)

let test_float_vec_basics () =
  let v = Float_vec.create ~capacity:2 () in
  check int "empty" 0 (Float_vec.length v);
  for i = 1 to 100 do
    Float_vec.push v (float_of_int i)
  done;
  check int "length" 100 (Float_vec.length v);
  check (approx 0.0) "get" 42.0 (Float_vec.get v 41);
  check (approx 0.0) "fold sum" 5050.0 (Float_vec.fold ( +. ) 0.0 v);
  Alcotest.check_raises "oob" (Invalid_argument "Float_vec.get: index out of bounds")
    (fun () -> ignore (Float_vec.get v 100));
  Float_vec.clear v;
  check int "cleared" 0 (Float_vec.length v)

let test_float_vec_to_array () =
  let v = Float_vec.create () in
  List.iter (Float_vec.push v) [ 3.0; 1.0; 2.0 ];
  check (Alcotest.array (approx 0.0)) "to_array" [| 3.0; 1.0; 2.0 |]
    (Float_vec.to_array v)

(* ------------------------------------------------------------------ *)
(* Quantile *)

let test_quantile_nearest_rank () =
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check (approx 0.0) "p50 of 1..100" 50.0 (Quantile.of_sorted sorted 0.5);
  check (approx 0.0) "p99 of 1..100" 99.0 (Quantile.of_sorted sorted 0.99);
  check (approx 0.0) "p100" 100.0 (Quantile.of_sorted sorted 1.0);
  check (approx 0.0) "p1" 1.0 (Quantile.of_sorted sorted 0.01)

let test_quantile_unsorted_input () =
  check (approx 0.0) "of_array sorts" 3.0 (Quantile.of_array [| 5.0; 1.0; 3.0 |] 0.5)

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.of_sorted: empty sample")
    (fun () -> ignore (Quantile.of_sorted [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Quantile.of_sorted: q out of (0, 1]") (fun () ->
      ignore (Quantile.of_sorted [| 1.0 |] 1.5))

let prop_quantile_bounds =
  QCheck.Test.make ~name:"quantile lies within sample bounds" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.0))
              (float_range 0.01 1.0))
    (fun (xs, q) ->
      let arr = Array.of_list xs in
      let v = Quantile.of_array arr q in
      let lo = List.fold_left min infinity xs and hi = List.fold_left max neg_infinity xs in
      lo <= v && v <= hi)

let prop_quantile_monotone_in_q =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:300
    QCheck.(triple (list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.0))
              (float_range 0.01 1.0) (float_range 0.01 1.0))
    (fun (xs, q1, q2) ->
      let arr = Array.of_list xs in
      let lo = min q1 q2 and hi = max q1 q2 in
      Quantile.of_array arr lo <= Quantile.of_array arr hi)

(* Selection across two sorted arrays equals [of_sorted] over their
   sorted union.  Values come from a small grid, so ties across and within
   the arrays are common, and either side may be empty. *)
let prop_of_sorted_union =
  let side = QCheck.(list_of_size Gen.(0 -- 40) (map float_of_int (int_bound 12))) in
  QCheck.Test.make ~name:"of_sorted_union = of_sorted over the union" ~count:1000
    QCheck.(triple side side (float_range 0.001 1.0))
    (fun (xs, ys, q) ->
      QCheck.assume (xs <> [] || ys <> []);
      let sorted l =
        let a = Array.of_list l in
        Quantile.sort_floats a;
        a
      in
      let a = sorted xs and b = sorted ys in
      let union = sorted (xs @ ys) in
      List.for_all
        (fun q ->
          Quantile.of_sorted_union a b q = Quantile.of_sorted union q
          && Quantile.of_sorted_union b a q = Quantile.of_sorted union q)
        [ q; 0.5; 0.99; 0.999; 1.0 ])

let test_of_sorted_union_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.of_sorted_union: empty sample")
    (fun () -> ignore (Quantile.of_sorted_union [||] [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Quantile.of_sorted_union: q out of (0, 1]") (fun () ->
      ignore (Quantile.of_sorted_union [| 1.0 |] [||] 0.0))

let test_many_of_vec () =
  let v = Float_vec.create () in
  for i = 1 to 100 do
    Float_vec.push v (float_of_int i)
  done;
  check (Alcotest.list (approx 0.0)) "many" [ 50.0; 95.0; 99.0 ]
    (Quantile.many_of_vec v [ 0.5; 0.95; 0.99 ]);
  check (approx 1e-9) "mean" 50.5 (Quantile.mean_of_vec v)

(* ------------------------------------------------------------------ *)
(* Log_histogram *)

let test_hist_record_and_total () =
  let h = Log_histogram.create ~min_value:1.0 ~max_value:1.0e6 () in
  check Alcotest.bool "empty" true (Log_histogram.is_empty h);
  Log_histogram.record h 100.0;
  Log_histogram.record_n h 5000.0 3.0;
  check (approx 1e-9) "total" 4.0 (Log_histogram.total h)

let test_hist_quantile_resolution () =
  (* The histogram quantile over-estimates by at most one bucket (~7.5%
     with 32 buckets per decade). *)
  let h = Log_histogram.create ~min_value:1.0 ~max_value:1.0e6 () in
  for i = 1 to 1000 do
    Log_histogram.record h (float_of_int i)
  done;
  let q99 = Log_histogram.quantile h 0.99 in
  if q99 < 990.0 || q99 > 990.0 *. 1.16 then
    Alcotest.failf "p99 %.1f outside [990, 1148]" q99

let test_hist_quantile_extremes () =
  let h = Log_histogram.create ~min_value:1.0 ~max_value:1000.0 () in
  Log_histogram.record h 0.5;
  (* below min: first bucket *)
  Log_histogram.record h 5000.0;
  (* above max: last bucket *)
  let q_low = Log_histogram.quantile h 0.5 in
  if q_low > 1.2 then Alcotest.failf "low quantile %.2f should be ~min" q_low;
  let q_high = Log_histogram.quantile h 1.0 in
  if q_high < 1000.0 then Alcotest.failf "high quantile %.0f should be >= max" q_high

let test_hist_merge () =
  let a = Log_histogram.create ~min_value:1.0 ~max_value:1.0e3 () in
  let b = Log_histogram.create ~min_value:1.0 ~max_value:1.0e3 () in
  Log_histogram.record a 10.0;
  Log_histogram.record b 10.0;
  Log_histogram.record b 100.0;
  Log_histogram.merge_into ~dst:a b;
  check (approx 1e-9) "merged total" 3.0 (Log_histogram.total a);
  let c = Log_histogram.create ~min_value:2.0 ~max_value:1.0e3 () in
  Alcotest.check_raises "layout mismatch"
    (Invalid_argument "Log_histogram.merge_into: layout mismatch") (fun () ->
      Log_histogram.merge_into ~dst:a c)

let test_hist_smooth () =
  let prev = Log_histogram.create ~min_value:1.0 ~max_value:1.0e3 () in
  let cur = Log_histogram.create ~min_value:1.0 ~max_value:1.0e3 () in
  Log_histogram.record_n prev 10.0 10.0;
  Log_histogram.record_n cur 10.0 20.0;
  let s = Log_histogram.smooth ~prev ~current:cur ~alpha:0.9 in
  (* 0.1 * 10 + 0.9 * 20 = 19 *)
  check (approx 1e-9) "ema total" 19.0 (Log_histogram.total s);
  (* alpha = 1 keeps only the new epoch *)
  let s1 = Log_histogram.smooth ~prev ~current:cur ~alpha:1.0 in
  check (approx 1e-9) "alpha=1" 20.0 (Log_histogram.total s1)

let test_hist_reset_and_copy () =
  let h = Log_histogram.create ~min_value:1.0 ~max_value:1.0e3 () in
  Log_histogram.record h 50.0;
  let c = Log_histogram.copy h in
  Log_histogram.reset h;
  check Alcotest.bool "reset empties" true (Log_histogram.is_empty h);
  check (approx 1e-9) "copy unaffected" 1.0 (Log_histogram.total c)

let prop_hist_quantile_close_to_exact =
  QCheck.Test.make ~name:"histogram p-quantile within one bucket of exact" ~count:50
    QCheck.(list_of_size Gen.(10 -- 200) (float_range 1.0 100000.0))
    (fun xs ->
      let h = Log_histogram.create ~min_value:1.0 ~max_value:1.0e6 () in
      List.iter (Log_histogram.record h) xs;
      let exact = Quantile.of_array (Array.of_list xs) 0.9 in
      let est = Log_histogram.quantile h 0.9 in
      (* upper bound of the containing bucket: est in [exact, exact*gamma^2) *)
      est >= exact *. 0.93 && est <= exact *. 1.16)

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_summary_moments () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check int "count" 8 (Summary.count s);
  check (approx 1e-9) "mean" 5.0 (Summary.mean s);
  check (approx 1e-9) "sample variance" (32.0 /. 7.0) (Summary.variance s);
  check (approx 1e-9) "min" 2.0 (Summary.min s);
  check (approx 1e-9) "max" 9.0 (Summary.max s);
  check (approx 1e-9) "sum" 40.0 (Summary.sum s)

let test_summary_merge_equals_pooled () =
  let a = Summary.create () and b = Summary.create () and all = Summary.create () in
  let xs = [ 1.0; 2.0; 3.0 ] and ys = [ 10.0; 20.0; 30.0; 40.0 ] in
  List.iter (Summary.add a) xs;
  List.iter (Summary.add b) ys;
  List.iter (Summary.add all) (xs @ ys);
  let m = Summary.merge a b in
  check (approx 1e-9) "merged mean" (Summary.mean all) (Summary.mean m);
  check (approx 1e-6) "merged variance" (Summary.variance all) (Summary.variance m);
  check int "merged count" (Summary.count all) (Summary.count m)

let test_summary_empty () =
  let s = Summary.create () in
  check (approx 0.0) "mean of empty" 0.0 (Summary.mean s);
  check (approx 0.0) "variance of empty" 0.0 (Summary.variance s)

(* ------------------------------------------------------------------ *)
(* Windowed *)

let test_windowed_routing () =
  let w = Windowed.create ~width:10.0 () in
  Windowed.add w ~time:1.0 100.0;
  Windowed.add w ~time:9.9 200.0;
  Windowed.add w ~time:10.0 300.0;
  Windowed.add w ~time:25.0 400.0;
  let windows = Windowed.windows w in
  check int "three windows" 3 (List.length windows);
  let starts = List.map (fun x -> x.Windowed.start_time) windows in
  check (Alcotest.list (approx 1e-9)) "window starts" [ 0.0; 10.0; 20.0 ] starts

let test_windowed_quantile_series () =
  let w = Windowed.create ~width:10.0 () in
  for i = 1 to 100 do
    Windowed.add w ~time:5.0 (float_of_int i)
  done;
  Windowed.add w ~time:15.0 7.0;
  (match Windowed.quantile_series w 0.99 with
  | [ (t0, q0); (t1, q1) ] ->
      check (approx 1e-9) "t0" 0.0 t0;
      check (approx 0.0) "q0" 99.0 q0;
      check (approx 1e-9) "t1" 10.0 t1;
      check (approx 0.0) "q1" 7.0 q1
  | _ -> Alcotest.fail "expected two windows");
  match Windowed.mean_series w with
  | [ (_, m0); (_, m1) ] ->
      check (approx 1e-9) "mean0" 50.5 m0;
      check (approx 1e-9) "mean1" 7.0 m1
  | _ -> Alcotest.fail "expected two windows"

let test_windowed_out_of_order () =
  let w = Windowed.create ~width:1.0 () in
  Windowed.add w ~time:5.5 1.0;
  Windowed.add w ~time:2.5 2.0;
  (* earlier timestamp arrives later *)
  let starts = List.map (fun x -> x.Windowed.start_time) (Windowed.windows w) in
  check (Alcotest.list (approx 1e-9)) "sorted" [ 2.0; 5.0 ] starts

(* ------------------------------------------------------------------ *)
(* Reservoir *)

let test_reservoir_under_capacity () =
  let r = Reservoir.create ~capacity:10 () in
  List.iter (Reservoir.add r) [ 5.0; 1.0; 3.0 ];
  check int "seen" 3 (Reservoir.seen r);
  check int "size" 3 (Reservoir.size r);
  let sorted = Reservoir.to_array r in
  Array.sort compare sorted;
  check (Alcotest.array (approx 0.0)) "contents" [| 1.0; 3.0; 5.0 |] sorted

let test_reservoir_bounded () =
  let r = Reservoir.create ~capacity:100 () in
  for i = 1 to 10_000 do
    Reservoir.add r (float_of_int i)
  done;
  check int "seen all" 10_000 (Reservoir.seen r);
  check int "bounded" 100 (Reservoir.size r);
  (* A uniform subsample of 1..10000 should have a median far from the
     extremes. *)
  let q50 = Reservoir.quantile r 0.5 in
  if q50 < 2000.0 || q50 > 8000.0 then
    Alcotest.failf "median %.0f suggests biased sampling" q50

let () =
  Alcotest.run "stats"
    [
      ( "float_vec",
        [
          Alcotest.test_case "basics" `Quick test_float_vec_basics;
          Alcotest.test_case "to_array" `Quick test_float_vec_to_array;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "nearest rank" `Quick test_quantile_nearest_rank;
          Alcotest.test_case "unsorted input" `Quick test_quantile_unsorted_input;
          Alcotest.test_case "errors" `Quick test_quantile_errors;
          Alcotest.test_case "many + mean" `Quick test_many_of_vec;
        ]
        @ [ Alcotest.test_case "union errors" `Quick test_of_sorted_union_errors ]
        @ qsuite [ prop_quantile_bounds; prop_quantile_monotone_in_q; prop_of_sorted_union ] );
      ( "log_histogram",
        [
          Alcotest.test_case "record and total" `Quick test_hist_record_and_total;
          Alcotest.test_case "quantile resolution" `Quick test_hist_quantile_resolution;
          Alcotest.test_case "quantile extremes" `Quick test_hist_quantile_extremes;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "smooth" `Quick test_hist_smooth;
          Alcotest.test_case "reset and copy" `Quick test_hist_reset_and_copy;
        ]
        @ qsuite [ prop_hist_quantile_close_to_exact ] );
      ( "summary",
        [
          Alcotest.test_case "moments" `Quick test_summary_moments;
          Alcotest.test_case "merge" `Quick test_summary_merge_equals_pooled;
          Alcotest.test_case "empty" `Quick test_summary_empty;
        ] );
      ( "windowed",
        [
          Alcotest.test_case "routing" `Quick test_windowed_routing;
          Alcotest.test_case "quantile series" `Quick test_windowed_quantile_series;
          Alcotest.test_case "out of order" `Quick test_windowed_out_of_order;
        ] );
      ( "reservoir",
        [
          Alcotest.test_case "under capacity" `Quick test_reservoir_under_capacity;
          Alcotest.test_case "bounded" `Quick test_reservoir_bounded;
        ] );
    ]
