(* Quickstart: the two front doors of the library.

   1. The embedded key-value store (Kvstore): a MICA-style hash store with
      optimistic reads and slab-allocated values.
   2. The evaluation harness (Minos.Experiment): simulate a size-aware
      server design on a paper workload and read off tail latencies.

   Run with: dune exec examples/quickstart.exe
*)

let () =
  (* --- 1. The key-value store ------------------------------------- *)
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:10
      ~value_arena_bytes:(16 * 1024 * 1024) ()
  in
  Kvstore.Store.put store ~guard:`Lock "user:42" (Bytes.of_string "Ada Lovelace");
  Kvstore.Store.put store ~guard:`Lock "user:43" (Bytes.of_string "Alan Turing");
  (match Kvstore.Store.get store "user:42" with
  | Some v -> Printf.printf "GET user:42 -> %s\n" (Bytes.to_string v)
  | None -> print_endline "GET user:42 -> (not found)");
  Printf.printf "size_of user:43 -> %d bytes\n"
    (Option.value ~default:0 (Kvstore.Store.size_of store "user:43"));
  ignore (Kvstore.Store.delete store ~guard:`Lock "user:43");
  let stats = Kvstore.Store.stats store in
  Printf.printf "store: %d items, %d value bytes, %d partitions\n\n"
    stats.Kvstore.Store.items stats.Kvstore.Store.value_bytes
    stats.Kvstore.Store.partitions;

  (* --- 2. One simulated experiment -------------------------------- *)
  (* The paper's default workload: 95:5 GET:PUT, zipf 0.99, 0.125% of
     requests touch large (up to 500 KB) items. *)
  let spec = Workload.Spec.default in
  let cfg = Minos.Experiment.config_of_scale Minos.Experiment.quick_scale in
  print_endline "simulating 3.0 Mops on an 8-core server, all four designs:";
  List.iter
    (fun design ->
      let m =
        Minos.Experiment.Spec.make design
        |> Minos.Experiment.Spec.with_workload_spec spec
        |> Minos.Experiment.Spec.with_cfg cfg
        |> Minos.Experiment.Spec.with_load 3.0
        |> Minos.Experiment.run_spec
      in
      Printf.printf "  %-8s p50=%5.1fus  p99=%6.1fus  p999=%7.1fus  nic=%2.0f%%\n"
        m.Kvserver.Metrics.design m.Kvserver.Metrics.p50_us m.Kvserver.Metrics.p99_us
        m.Kvserver.Metrics.p999_us
        (100.0 *. m.Kvserver.Metrics.nic_tx_utilization))
    Minos.Experiment.all_designs;
  print_endline "\nnote how size-aware sharding (Minos) keeps the 99th percentile";
  print_endline "an order of magnitude below keyhash sharding (HKH) at equal load."
