(* Tests for the parallel runner: pool semantics and — the part that
   actually matters — the determinism contract.  A sweep, a replicated
   run and an SLO search must produce bit-identical results whether they
   run on one domain or many. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Run [f] with the job count pinned to [n], restoring the default after. *)
let with_jobs n f =
  Minos.Par.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Minos.Par.set_jobs None) f

(* ------------------------------------------------------------------ *)
(* Pool semantics *)

let test_map_matches_sequential () =
  let input = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f input in
  with_jobs 4 (fun () ->
      check (Alcotest.array int) "map = Array.map" expected
        (Minos.Par.map f input))

let test_map_list_matches_sequential () =
  let input = List.init 57 (fun i -> i) in
  let f x = x * 3 in
  with_jobs 3 (fun () ->
      check (Alcotest.list int) "map_list = List.map" (List.map f input)
        (Minos.Par.map_list f input))

let test_map_empty () =
  with_jobs 4 (fun () ->
      check int "empty input" 0 (Array.length (Minos.Par.map (fun x -> x) [||])))

let test_exception_propagates () =
  with_jobs 4 (fun () ->
      match Minos.Par.map (fun x -> if x = 13 then failwith "boom" else x)
              (Array.init 32 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Failure to propagate"
      | exception Failure msg -> check Alcotest.string "message" "boom" msg)

let test_nested_map () =
  (* A job that itself calls [map] must fall back to sequential execution
     inside the worker rather than deadlocking the pool. *)
  with_jobs 4 (fun () ->
      let result =
        Minos.Par.map
          (fun x ->
            Array.fold_left ( + ) 0
              (Minos.Par.map (fun y -> x * y) (Array.init 10 (fun i -> i))))
          (Array.init 8 (fun i -> i))
      in
      let expected = Array.init 8 (fun x -> x * 45) in
      check (Alcotest.array int) "nested map" expected result)

let test_set_jobs_clamps () =
  Minos.Par.set_jobs (Some 0);
  let j = Minos.Par.jobs () in
  Minos.Par.set_jobs None;
  check int "values below 1 clamp to 1" 1 j

(* ------------------------------------------------------------------ *)
(* Determinism: parallel experiment results = sequential results *)

let spec =
  { Workload.Spec.default with n_keys = 20_000; n_large_keys = 50 }

let cfg =
  let base = Minos.Experiment.config_of_scale Minos.Experiment.quick_scale in
  { base with
    Kvserver.Config.duration_us = 30_000.0;
    warmup_us = 10_000.0;
    epoch_us = 5_000.0
  }

(* Structural equality via polymorphic [compare]: metrics records contain
   [nan] fields (e.g. [large_p99_us] with no large samples), which [=]
   would treat as unequal even for identical runs. *)
let same a b = compare a b = 0

let test_sweep_deterministic () =
  let loads = [ 1.0; 2.0; 3.0; 4.0 ] in
  let go () = Minos.Experiment.sweep ~cfg Kvserver.Design.minos spec ~loads_mops:loads in
  let seq = with_jobs 1 go in
  let par = with_jobs 4 go in
  check int "same number of points" (List.length seq) (List.length par);
  check bool "sweep bit-identical across domain counts" true (same seq par)

let point design load =
  Minos.Experiment.Spec.make design
  |> Minos.Experiment.Spec.with_workload_spec spec
  |> Minos.Experiment.Spec.with_cfg cfg
  |> Minos.Experiment.Spec.with_load load

let test_replicated_deterministic () =
  let go () =
    Minos.Par.map_list
      (fun seed ->
        Minos.Experiment.run_spec
          (Minos.Experiment.Spec.with_seed seed (point Kvserver.Design.hkh 2.5)))
      [ 1; 2; 3; 4 ]
  in
  let seq = with_jobs 1 go in
  let par = with_jobs 4 go in
  check bool "replicated runs bit-identical" true (same seq par)

let test_slo_search_deterministic () =
  let go () =
    Minos.Slo_search.search
      ~eval:(fun load -> Minos.Experiment.run_spec (point Kvserver.Design.minos load))
      ~slo_p99_us:50.0 ~lo_mops:0.5 ~hi_mops:5.0 ~iters:4
  in
  let seq = with_jobs 1 go in
  let par = with_jobs 4 go in
  check bool "slo search bit-identical" true (same seq par);
  check int "same evaluation count" seq.Minos.Slo_search.evaluations
    par.Minos.Slo_search.evaluations

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "map_list matches sequential" `Quick
            test_map_list_matches_sequential;
          Alcotest.test_case "empty input" `Quick test_map_empty;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "set_jobs clamps" `Quick test_set_jobs_clamps;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sweep" `Slow test_sweep_deterministic;
          Alcotest.test_case "replicated" `Slow test_replicated_deterministic;
          Alcotest.test_case "slo search" `Slow test_slo_search_deterministic;
        ] );
    ]
