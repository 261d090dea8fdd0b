(* Tests for the statistics library: vectors, quantiles, histograms,
   summaries and windows. *)

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
  check (approx 0.0) "sum" 5050.0 (Float_vec.sum v);
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

(* A random sample for the selection properties: small (one count pass,
   then the gathered sort) or above the 4,096-sample gather bound (several
   count passes), drawn as heavy duplicates
   (2-5 distinct values, so one value can hold thousands of samples), all
   equal, latency-like, or signed across 200 binades with zeros of both
   signs and infinities.  [marks] is a random class bitmap, possibly
   shorter than the sample. *)
let gen_selection =
  let open QCheck.Gen in
  let* n = frequency [ (3, int_range 1 60); (2, int_range 4000 12_000) ] in
  let* kind = int_bound 3 in
  let* seed = int in
  let* q = float_range 1e-6 1.0 in
  return (n, kind, seed, q)

let selection_sample (n, kind, seed, _) =
  let st = Random.State.make [| seed |] in
  let grid = 2 + Random.State.int st 4 and c = Random.State.float st 100.0 in
  let draw _ =
    match kind with
    | 0 -> float_of_int (Random.State.int st grid)
    | 1 -> c
    | 2 -> 1.0 -. (10.0 *. log (1.0 -. Random.State.float st 1.0))
    | _ -> (
        match Random.State.int st 20 with
        | 0 -> 0.0
        | 1 -> -0.0
        | 2 -> infinity
        | 3 -> neg_infinity
        | _ ->
            let m = Random.State.float st 1.0 in
            let m = if Random.State.bool st then m else -.m in
            ldexp m (Random.State.int st 200 - 100))
  in
  let samples = Array.init n draw in
  let marks =
    Bytes.init (Random.State.int st ((n / 8) + 3)) (fun _ -> Char.chr (Random.State.int st 256))
  in
  (samples, marks)

let is_marked marks i =
  i lsr 3 < Bytes.length marks
  && Char.code (Bytes.get marks (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* The in-place selection equals sorting a copy and indexing it, over the
   whole sample and over each class of the bitmap (NaN for an empty one). *)
let prop_selection_is_sort =
  QCheck.Test.make ~name:"selection = sort + of_sorted" ~count:300
    (QCheck.make
       ~print:(fun ((n, kind, seed, q) as p) ->
         Printf.sprintf "n=%d kind=%d seed=%d q=%g marks=%d" n kind seed q
           (Bytes.length (snd (selection_sample p))))
       gen_selection)
    (fun ((_, _, _, q) as p) ->
      let samples, marks = selection_sample p in
      let v = Float_vec.create ~capacity:1 () in
      Array.iter (Float_vec.push v) samples;
      let by_sort l q =
        match l with
        | [] -> Float.nan
        | l ->
            let a = Array.of_list l in
            Quantile.sort_floats a;
            Quantile.of_sorted a q
      in
      let all = Array.to_list samples in
      let cls marked = List.filteri (fun i _ -> is_marked marks i = marked) all in
      List.for_all
        (fun q ->
          let expect = by_sort all q in
          Float.equal (Quantile.of_array samples q) expect
          && Float.equal (Quantile.of_vec v q) expect
          && List.for_all
               (fun marked ->
                 Float.equal
                   (Quantile.of_vec_marked v ~marks ~marked q)
                   (by_sort (cls marked) q))
               [ true; false ])
        [ q; 1e-9; 0.5; 0.99; 0.999; 1.0 ])

(* Several vectors are selected as their concatenation: the sample of
   [prop_selection_is_sort] cut at random points into 1-6 vectors, some
   of them empty; the mean is the concatenation's, bit for bit. *)
let prop_selection_over_vectors =
  QCheck.Test.make ~name:"selection over vectors = over their concatenation" ~count:200
    (QCheck.make
       ~print:(fun (n, kind, seed, q) -> Printf.sprintf "n=%d kind=%d seed=%d q=%g" n kind seed q)
       gen_selection)
    (fun ((n, _, seed, q) as p) ->
      let samples, _ = selection_sample p in
      let st = Random.State.make [| seed; n |] in
      let cuts = List.init (Random.State.int st 6) (fun _ -> Random.State.int st (n + 1)) in
      let bounds = Array.of_list (0 :: List.sort compare cuts @ [ n ]) in
      let vecs =
        Array.init (Array.length bounds - 1) (fun i ->
            let v = Float_vec.create ~capacity:1 () in
            for j = bounds.(i) to bounds.(i + 1) - 1 do
              Float_vec.push v samples.(j)
            done;
            v)
      in
      let whole = Float_vec.create ~capacity:1 () in
      Array.iter (Float_vec.append whole) vecs;
      let qs = [ q; 1e-9; 0.5; 0.99; 0.999; 1.0 ] in
      List.for_all2 Float.equal (Quantile.many_of_vecs vecs qs) (Quantile.many_of_vec whole qs)
      && Int64.equal
           (Int64.bits_of_float (Quantile.mean_of_vecs vecs))
           (Int64.bits_of_float (Quantile.mean_of_vec whole)))

let test_selection_in_place () =
  let st = Random.State.make [| 7 |] in
  let v = Float_vec.create () in
  for _ = 1 to 50_000 do
    Float_vec.push v (Random.State.float st 1000.0)
  done;
  let before = Float_vec.to_array v in
  let marks = Bytes.init 6250 (fun _ -> Char.chr (Random.State.int st 256)) in
  ignore (Quantile.many_of_vec v [ 0.5; 0.99; 0.999 ]);
  ignore (Quantile.of_vec_marked v ~marks ~marked:true 0.99);
  ignore (Quantile.of_vec_marked v ~marks ~marked:false 0.99);
  let same a b =
    Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b
  in
  check Alcotest.bool "vector order and contents unchanged" true
    (same before (Float_vec.to_array v));
  let arr = Array.copy before in
  ignore (Quantile.of_array arr 0.5);
  check Alcotest.bool "array unchanged" true (same before arr);
  (* The passes allocate a histogram and a bounded scratch array, nothing
     per sample. *)
  let minor0 = Gc.minor_words () in
  ignore (Quantile.of_vec_marked v ~marks ~marked:true 0.99);
  let minor = Gc.minor_words () -. minor0 in
  if minor > 1000.0 then
    Alcotest.failf "selection over 50k samples allocated %.0f minor words" minor;
  let minor0 = Gc.minor_words () in
  ignore (Quantile.of_vecs [| v; Float_vec.create (); v |] 0.99);
  ignore (Quantile.mean_of_vecs [| v; v |]);
  let minor = Gc.minor_words () -. minor0 in
  if minor > 1000.0 then
    Alcotest.failf "selection over 3 vectors allocated %.0f minor words" minor;
  check Alcotest.bool "vectors unchanged" true (same before (Float_vec.to_array v))

let test_selection_errors () =
  let small = Float_vec.create () and large = Float_vec.create () in
  Float_vec.push small 1.0;
  Float_vec.push small Float.nan;
  for i = 1 to 5000 do
    Float_vec.push large (float_of_int i)
  done;
  Float_vec.push large Float.nan;
  List.iter
    (fun v ->
      Alcotest.check_raises "NaN refused" (Invalid_argument "Quantile.of_vec: NaN sample")
        (fun () -> ignore (Quantile.of_vec v 0.5)))
    [ small; large ];
  Alcotest.check_raises "empty vector"
    (Invalid_argument "Quantile.of_vec: empty sample") (fun () ->
      ignore (Quantile.of_vec (Float_vec.create ()) 0.5));
  Alcotest.check_raises "empty vectors"
    (Invalid_argument "Quantile.of_vecs: empty sample") (fun () ->
      ignore (Quantile.of_vecs [| Float_vec.create (); Float_vec.create () |] 0.5));
  Alcotest.check_raises "NaN in a later vector" (Invalid_argument "Quantile.of_vecs: NaN sample")
    (fun () ->
      let clean = Float_vec.create () in
      Float_vec.push clean 2.0;
      ignore (Quantile.of_vecs [| clean; small |] 0.5));
  check Alcotest.bool "empty class is NaN" true
    (Float.is_nan (Quantile.of_vec_marked large ~marks:Bytes.empty ~marked:true 0.5));
  Alcotest.check_raises "q checked for an empty class"
    (Invalid_argument "Quantile.of_vec_marked: q out of (0, 1]") (fun () ->
      ignore (Quantile.of_vec_marked large ~marks:Bytes.empty ~marked:true 0.0))

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
  for _ = 1 to 3 do
    Log_histogram.record h 5000.0
  done;
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
  for _ = 1 to 10 do
    Log_histogram.record prev 10.0
  done;
  for _ = 1 to 20 do
    Log_histogram.record cur 10.0
  done;
  let s = Log_histogram.smooth ~prev ~current:cur ~alpha:0.9 in
  (* 0.1 * 10 + 0.9 * 20 = 19 *)
  check (approx 1e-9) "ema total" 19.0 (Log_histogram.total s);
  (* alpha = 1 keeps only the new epoch *)
  let s1 = Log_histogram.smooth ~prev ~current:cur ~alpha:1.0 in
  check (approx 1e-9) "alpha=1" 20.0 (Log_histogram.total s1)

let test_hist_reset_and_copy () =
  let h = Log_histogram.create ~min_value:1.0 ~max_value:1.0e3 () in
  Log_histogram.record h 50.0;
  Log_histogram.reset h;
  check Alcotest.bool "reset empties" true (Log_histogram.is_empty h);
  Log_histogram.record h 50.0;
  check (approx 1e-9) "counts again after reset" 1.0 (Log_histogram.total h)

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
  check (approx 1e-9) "mean" 5.0 (Summary.mean s)

let test_summary_empty () =
  let s = Summary.create () in
  check (approx 0.0) "mean of empty" 0.0 (Summary.mean s)

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
  | _ -> Alcotest.fail "expected two windows")

let test_windowed_out_of_order () =
  let w = Windowed.create ~width:1.0 () in
  Windowed.add w ~time:5.5 1.0;
  Windowed.add w ~time:2.5 2.0;
  (* earlier timestamp arrives later *)
  let starts = List.map (fun x -> x.Windowed.start_time) (Windowed.windows w) in
  check (Alcotest.list (approx 1e-9)) "sorted" [ 2.0; 5.0 ] starts

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
          Alcotest.test_case "selection in place" `Quick test_selection_in_place;
          Alcotest.test_case "selection errors" `Quick test_selection_errors;
        ]
        @ qsuite
            [
              prop_quantile_bounds;
              prop_quantile_monotone_in_q;
              prop_selection_is_sort;
              prop_selection_over_vectors;
            ] );
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
          Alcotest.test_case "empty" `Quick test_summary_empty;
        ] );
      ( "windowed",
        [
          Alcotest.test_case "routing" `Quick test_windowed_routing;
          Alcotest.test_case "quantile series" `Quick test_windowed_quantile_series;
          Alcotest.test_case "out of order" `Quick test_windowed_out_of_order;
        ] );
    ]
