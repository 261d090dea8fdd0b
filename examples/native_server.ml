(* The native multicore Minos: size-aware sharding running on real OCaml 5
   domains against the real KV store, compared with the keyhash (HKH)
   baseline: the server runs either registry design.

   On a machine with >= 5 hardware threads the latency gap mirrors the
   paper; on smaller machines the domains time-slice, so focus on the
   functional picture: the control loop converging on the threshold, cores
   splitting into pools, and large requests flowing through handoffs.

   Run with: dune exec examples/native_server.exe
*)

let spec =
  {
    Workload.Spec.default with
    Workload.Spec.n_keys = 5_000;
    n_large_keys = 50;
    s_large_max = 64_000;
    p_large = 1.0 (* denser large traffic so a short demo shows handoffs *);
  }

let requests = 40_000

let run design =
  let dataset = Workload.Dataset.create spec in
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:9
      ~value_arena_bytes:(128 * 1024 * 1024) ()
  in
  Runtime.Loadgen.populate store dataset;
  let config = { Runtime.Server.default_config with Runtime.Server.design } in
  let server = Runtime.Server.start ~config store in
  let t0 = Unix.gettimeofday () in
  let outcome = Runtime.Loadgen.run ~server ~dataset ~requests ~seed:17 () in
  let elapsed = Unix.gettimeofday () -. t0 in
  let stats = Runtime.Server.stats server in
  Runtime.Server.stop server;
  match outcome with
  | Ok result -> (result, stats, elapsed)
  | Error stall -> failwith ("native_server: " ^ Runtime.Loadgen.stall_message stall)

let () =
  Printf.printf "native runtime: %d requests, %d worker domains, pL=%.1f%%\n\n" requests
    Runtime.Server.default_config.Runtime.Server.cores spec.Workload.Spec.p_large;
  List.iter
    (fun design ->
      let result, stats, elapsed = run design in
      let qs =
        Stats.Quantile.many_of_vec result.Runtime.Loadgen.latencies [ 0.5; 0.99 ]
      in
      Printf.printf "%s (%s):\n" (Kvserver.Design.name design)
        (Kvserver.Design.summary design);
      Printf.printf "  completed %d ops in %.2fs (%.0f kops/s), p50=%.0fus p99=%.0fus\n"
        result.Runtime.Loadgen.completed elapsed
        (float_of_int result.Runtime.Loadgen.completed /. elapsed /. 1000.0)
        (List.nth qs 0) (List.nth qs 1);
      Printf.printf "  per-core serves: %s\n"
        (String.concat " "
           (Array.to_list (Array.map string_of_int stats.Runtime.Server.served)));
      Printf.printf
        "  control loop: %d epochs, threshold=%.0fB, %d small + %d large cores, %d handoffs\n\n"
        stats.Runtime.Server.epochs stats.Runtime.Server.threshold
        stats.Runtime.Server.n_small stats.Runtime.Server.n_large
        stats.Runtime.Server.handoffs)
    [ Kvserver.Design.minos; Kvserver.Design.hkh ]
