(* Cluster layer tests: router math (ring balance, range-map edges,
   rebalance), the max-of-k fan-out analytics against closed-form order
   statistics, and miniature end-to-end cluster runs pinning the
   determinism contract (same seed => byte-identical, any MINOS_JOBS)
   and the headline claim (per-server size-aware sharding beats the
   keyhash baseline at p99 under fan-out). *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let exact = Alcotest.(result unit string)

let with_jobs n f =
  Minos.Par.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Minos.Par.set_jobs None) f

(* ------------------------------------------------------------------ *)
(* Ring *)

let ring_counts ring ~servers ~keys =
  let counts = Array.make servers 0 in
  for k = 0 to keys - 1 do
    let s = Kvcluster.Ring.lookup ring k in
    check bool "owner in range" true (s >= 0 && s < servers);
    counts.(s) <- counts.(s) + 1
  done;
  counts

let test_ring_balance () =
  (* 128 vnodes/server must keep the heaviest shard within ~1.35x of the
     mean over a dense key range — the classic consistent-hashing bound
     for this vnode count. *)
  List.iter
    (fun servers ->
      let ring = Kvcluster.Ring.of_members ~vnodes:128 (List.init servers Fun.id) in
      let keys = 100_000 in
      let counts = ring_counts ring ~servers ~keys in
      let max_c = Array.fold_left max 0 counts in
      let mean_c = float_of_int keys /. float_of_int servers in
      check bool
        (Printf.sprintf "%d servers: max/mean %.3f < 1.35" servers
           (float_of_int max_c /. mean_c))
        true
        (float_of_int max_c /. mean_c < 1.35);
      check int
        (Printf.sprintf "%d servers: every key owned" servers)
        keys
        (Array.fold_left ( + ) 0 counts))
    [ 2; 4; 8 ]

let test_ring_deterministic () =
  let a = Kvcluster.Ring.of_members ~vnodes:64 (List.init 5 Fun.id) in
  let b = Kvcluster.Ring.of_members ~vnodes:64 (List.init 5 Fun.id) in
  for k = 0 to 9_999 do
    if Kvcluster.Ring.lookup a k <> Kvcluster.Ring.lookup b k then
      Alcotest.failf "lookup diverges at key %d" k
  done

let test_ring_remove_stability () =
  (* Removing one server must only move the keys that server owned;
     every other key keeps its owner (the point of consistent hashing). *)
  let servers = 6 in
  let ring = Kvcluster.Ring.of_members ~vnodes:128 (List.init servers Fun.id) in
  let victim = 2 in
  let shrunk = Kvcluster.Ring.remove ring victim in
  let moved_wrongly = ref 0 in
  let reassigned = ref 0 in
  for k = 0 to 49_999 do
    let before = Kvcluster.Ring.lookup ring k in
    let after = Kvcluster.Ring.lookup shrunk k in
    if before = victim then begin
      incr reassigned;
      check bool "victim's keys go elsewhere" true (after <> victim)
    end
    else if after <> before then incr moved_wrongly
  done;
  check int "no key moves unless its owner left" 0 !moved_wrongly;
  check bool "victim owned some keys" true (!reassigned > 0)

let test_ring_remove_last_server_rejected () =
  let ring = Kvcluster.Ring.of_members [ 0 ] in
  Alcotest.check_raises "cannot empty the ring"
    (Invalid_argument "Ring.remove: cannot remove the last server") (fun () ->
      ignore (Kvcluster.Ring.remove ring 0))

(* ------------------------------------------------------------------ *)
(* Range map *)

let test_range_map_edges () =
  let m = Kvcluster.Range_map.create ~servers:4 ~n_keys:100 () in
  check int "key 0 -> shard 0" 0 (Kvcluster.Range_map.lookup m 0);
  check int "key 24 -> shard 0" 0 (Kvcluster.Range_map.lookup m 24);
  check int "boundary key 25 -> shard 1" 1 (Kvcluster.Range_map.lookup m 25);
  check int "boundary key 75 -> shard 3" 3 (Kvcluster.Range_map.lookup m 75);
  check int "last key -> last shard" 3 (Kvcluster.Range_map.lookup m 99);
  List.iter
    (fun k ->
      match Kvcluster.Range_map.lookup m k with
      | _ -> Alcotest.failf "lookup %d should raise" k
      | exception Invalid_argument _ -> ())
    [ -1; 100 ]

let test_range_map_explicit_starts () =
  let m =
    Kvcluster.Range_map.create ~starts:[| 0; 10; 90 |] ~servers:3 ~n_keys:100 ()
  in
  check int "narrow head" 0 (Kvcluster.Range_map.lookup m 9);
  check int "wide middle" 1 (Kvcluster.Range_map.lookup m 89);
  check int "narrow tail" 2 (Kvcluster.Range_map.lookup m 90);
  List.iter
    (fun starts ->
      match
        Kvcluster.Range_map.create ~starts ~servers:3 ~n_keys:100 ()
      with
      | _ -> Alcotest.fail "invalid starts accepted"
      | exception Invalid_argument _ -> ())
    [ [| 0; 10 |]; [| 1; 10; 90 |]; [| 0; 90; 10 |]; [| 0; 10; 10 |]; [| 0; 10; 100 |] ]

let test_range_rebalance_reduces_imbalance () =
  (* All the weight in the first quarter of the keyspace: an equal-width
     map sends ~all of it to shard 0; the re-cut map must spread it. *)
  let n_keys = 1_000 and servers = 4 in
  let buckets = 128 in
  let weights =
    Array.init buckets (fun b -> if b < buckets / 4 then 8.0 else 0.25)
  in
  let m = Kvcluster.Range_map.create ~servers ~n_keys () in
  let m' = Kvcluster.Range_map.rebalance m ~weights in
  let load map =
    let acc = Array.make servers 0.0 in
    for b = 0 to buckets - 1 do
      let key = b * n_keys / buckets in
      acc.(Kvcluster.Range_map.lookup map key) <-
        acc.(Kvcluster.Range_map.lookup map key) +. weights.(b)
    done;
    acc
  in
  let imb map =
    let l = load map in
    let max_l = Array.fold_left Float.max 0.0 l in
    max_l /. (Array.fold_left ( +. ) 0.0 l /. float_of_int servers)
  in
  let before = imb m and after = imb m' in
  check bool
    (Printf.sprintf "imbalance %.2f -> %.2f improves" before after)
    true (after < before);
  check bool "near-even after re-cut" true (after < 1.5)

let test_range_rebalance_bad_weights_typed () =
  (* Degenerate weight vectors raise a typed error instead of silently
     returning the old cuts (the old no-op behavior hid probe bugs). *)
  let m = Kvcluster.Range_map.create ~servers:3 ~n_keys:99 () in
  let expect err weights =
    match Kvcluster.Range_map.rebalance m ~weights with
    | _ -> Alcotest.failf "expected Bad_weights"
    | exception Kvcluster.Range_map.Bad_weights e -> check bool "error" true (e = err)
  in
  expect Kvcluster.Range_map.All_zero (Array.make 16 0.0);
  let w = Array.make 16 1.0 in
  w.(3) <- -2.0;
  expect (Kvcluster.Range_map.Negative 3) w;
  let w = Array.make 16 1.0 in
  w.(7) <- Float.nan;
  expect (Kvcluster.Range_map.Not_finite 7) w;
  expect
    (Kvcluster.Range_map.Too_few_buckets { buckets = 2; servers = 3 })
    (Array.make 2 1.0);
  check bool "sane weights re-cut" true
    (Kvcluster.Range_map.rebalance m ~weights:(Array.make 16 1.0) != m)

(* ------------------------------------------------------------------ *)
(* Ring membership properties (qcheck) *)

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

(* Pinned for ring.mli's of_members stability contract: removing one
   member only moves the keys that member owned, and routes identically
   to building the ring without it in the first place. *)
let qcheck_ring_remove_only_victim_moves =
  QCheck.Test.make ~name:"remove moves only the victim's keys" ~count:50
    QCheck.(
      triple (int_range 2 8) (int_range 8 64) (int_range 0 7))
    (fun (servers, vnodes, victim_raw) ->
      let victim = victim_raw mod servers in
      let members = List.init servers Fun.id in
      let ring = Kvcluster.Ring.of_members ~vnodes members in
      let shrunk = Kvcluster.Ring.remove ring victim in
      let rebuilt =
        Kvcluster.Ring.of_members ~vnodes
          (List.filter (fun s -> s <> victim) members)
      in
      let ok = ref true in
      for k = 0 to 4_999 do
        let before = Kvcluster.Ring.lookup ring k in
        let after = Kvcluster.Ring.lookup shrunk k in
        if before <> victim && after <> before then ok := false;
        if after = victim then ok := false;
        if Kvcluster.Ring.lookup rebuilt k <> after then ok := false
      done;
      !ok)

let qcheck_ring_add_only_new_server_gains =
  QCheck.Test.make ~name:"adding a member only moves keys it now owns"
    ~count:50
    QCheck.(pair (int_range 1 7) (int_range 8 64))
    (fun (servers, vnodes) ->
      let members = List.init servers Fun.id in
      let ring = Kvcluster.Ring.of_members ~vnodes members in
      let grown = Kvcluster.Ring.of_members ~vnodes (members @ [ servers ]) in
      let ok = ref true in
      for k = 0 to 4_999 do
        let before = Kvcluster.Ring.lookup ring k in
        let after = Kvcluster.Ring.lookup grown k in
        if after <> before && after <> servers then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Fan-out analytics *)

let test_analytic_max_of_k_vs_order_statistics () =
  (* p99 of the max of k iid draws is the q^(1/k) quantile of one draw —
     check the helper against the closed form on a known grid. *)
  let n = 10_000 in
  let sorted = Array.init n (fun i -> float_of_int (i + 1)) in
  List.iter
    (fun k ->
      let got = Fanout_oracle.analytic_max_quantile sorted ~k ~q:0.99 in
      let expected = Quantile_oracle.of_sorted sorted (0.99 ** (1.0 /. float_of_int k)) in
      check (Alcotest.float 1e-9) (Printf.sprintf "k=%d" k) expected got;
      (* and the closed form itself is monotone in k *)
      if k > 1 then
        check bool "max-of-k above single-shot p99" true
          (got >= Quantile_oracle.of_sorted sorted 0.99))
    [ 1; 2; 4; 8; 16 ]

let test_analytic_matches_sampled_max () =
  (* Monte-Carlo max of k draws from an empirical distribution must land
     close to the analytic order-statistic quantile. *)
  let n = 8_192 in
  let rng = Dsim.Rng.create 42 in
  let samples = Array.init n (fun _ -> Dsim.Rng.exponential rng ~mean:100.0) in
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let k = 4 in
  let trials = 50_000 in
  let maxes = Array.make trials 0.0 in
  for t = 0 to trials - 1 do
    let m = ref neg_infinity in
    for _ = 1 to k do
      let x = samples.(Dsim.Rng.int rng n) in
      if x > !m then m := x
    done;
    maxes.(t) <- !m
  done;
  Array.sort Float.compare maxes;
  let sampled = Quantile_oracle.of_sorted maxes 0.99 in
  let analytic = Fanout_oracle.analytic_max_quantile sorted ~k ~q:0.99 in
  let rel = Float.abs (sampled -. analytic) /. analytic in
  check bool
    (Printf.sprintf "sampled %.1f vs analytic %.1f (rel %.3f)" sampled analytic rel)
    true (rel < 0.05)

let test_hedge_quantile_degenerate_cases () =
  (* The hedged CDF G(x) = F(x) + (1 - F(x)) F(x - d) pins both ends:
     a delay beyond the largest sample means the backup can never win
     (unhedged quantile, exactly), and d = 0 is min-of-two — the base
     quantile at 1 - sqrt(1 - q).  In between the quantile is monotone
     in the delay. *)
  let n = 10_000 in
  let sorted = Array.init n (fun i -> float_of_int (i + 1)) in
  let q = 0.99 in
  let exact_at p = sorted.(int_of_float (Float.ceil (p *. float_of_int n)) - 1) in
  check (Alcotest.float 1e-9) "large d recovers the unhedged quantile"
    (exact_at q)
    (Fanout_oracle.analytic_hedge_quantile sorted ~d:1.0e9 ~q);
  let tied = Fanout_oracle.analytic_hedge_quantile sorted ~d:0.0 ~q in
  check bool "d = 0 is min-of-two" true
    (Float.abs (tied -. exact_at (1.0 -. sqrt (1.0 -. q))) <= 1.0);
  let prev = ref tied in
  List.iter
    (fun d ->
      let x = Fanout_oracle.analytic_hedge_quantile sorted ~d ~q in
      check bool
        (Printf.sprintf "monotone in the delay (d=%g)" d)
        true
        (x >= !prev -. 1e-9);
      prev := x)
    [ 10.0; 100.0; 1_000.0; 20_000.0 ];
  let rejects f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check bool "empty samples rejected" true
    (rejects (fun () ->
         Fanout_oracle.analytic_hedge_quantile [||] ~d:1.0 ~q:0.5));
  check bool "negative delay rejected" true
    (rejects (fun () ->
         Fanout_oracle.analytic_hedge_quantile sorted ~d:(-1.0) ~q:0.5));
  check bool "q outside (0, 1] rejected" true
    (rejects (fun () ->
         Fanout_oracle.analytic_hedge_quantile sorted ~d:1.0 ~q:0.0))

let prop_hedge_quantile_matches_sampled =
  (* Monte-Carlo resampling of min(X1, d + X2) must converge to the
     closed-form hedged quantile across delays and target quantiles. *)
  let n = 4_096 in
  let sorted =
    let rng = Dsim.Rng.create 19 in
    let a = Array.init n (fun _ -> Dsim.Rng.exponential rng ~mean:100.0) in
    Array.sort Float.compare a;
    a
  in
  QCheck.Test.make ~name:"analytic hedge quantile = sampled" ~count:30
    QCheck.(pair (float_bound_inclusive 400.0) (int_bound 2))
    (fun (d, qi) ->
      let q = [| 0.5; 0.95; 0.99 |].(qi) in
      let analytic = Fanout_oracle.analytic_hedge_quantile sorted ~d ~q in
      let sampled =
        Fanout_oracle.sample_hedge_quantile ~rng:(Dsim.Rng.create 7) sorted
          ~d ~q ~trials:30_000
      in
      Float.abs (sampled -. analytic) /. Float.max 1.0 analytic < 0.06)

let test_fanout_p99_grows_with_degree () =
  (* Synthetic 4-shard cluster with identical per-shard latency vecs:
     completion p99 must be monotone non-decreasing in the fan-out degree
     and strictly higher at 8 than at 1. *)
  let shards = 4 in
  let rng = Dsim.Rng.create 7 in
  let latencies =
    Array.init shards (fun _ ->
        let v = Stats.Float_vec.create () in
        for _ = 1 to 4_096 do
          Stats.Float_vec.push v (Dsim.Rng.exponential rng ~mean:50.0)
        done;
        v)
  in
  let points =
    Kvcluster.Fanout.measure
      ~rng:(Dsim.Rng.create 11)
      ~route:(fun k -> k mod shards)
      ~sample_key:(fun rng -> Dsim.Rng.int rng 1_000_000)
      ~latencies ~trials:20_000 ~fanouts:[ 1; 2; 4; 8 ] ()
  in
  let p99 = List.map (fun p -> p.Kvcluster.Fanout.p99_us) points in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        check bool "non-decreasing" true (b >= a -. 1e-9);
        monotone rest
    | _ -> ()
  in
  monotone p99;
  check bool "fanout 8 strictly above fanout 1" true
    (List.nth p99 3 > List.hd p99)

(* ------------------------------------------------------------------ *)
(* End-to-end cluster runs (quick scale) *)

let scale = Minos.Experiment.quick_scale

let cluster_run ?(servers = 2) ?policy ?rebalance () =
  Minos.Cluster.run ?policy ?rebalance ~servers ~fanouts:[ 1; 2; 4; 8 ] ~trials:5_000
    { Minos.Run.default with Minos.Run.scale; seed = 3; offered_mops = Some 4.0 }

let test_cluster_deterministic_across_jobs () =
  (* The whole point of the probe/thinning construction: reruns at the
     same seed are byte-identical, sequential or on 4 domains. *)
  let json () =
    Obs.Json.to_string (Minos.Cluster.report.Minos.Run.to_json (cluster_run ()))
  in
  let a = with_jobs 1 json in
  let b = with_jobs 4 json in
  let c = with_jobs 4 json in
  check Alcotest.string "jobs=1 vs jobs=4" a b;
  check Alcotest.string "rerun at jobs=4" b c

let golden name =
  In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all

let test_cluster_matches_pinned_output () =
  (* The static cluster's output at these settings, captured from the
     dedicated static-routing runner the no-op-plan table replaced; both
     routing policies must keep reproducing it byte for byte. *)
  check Alcotest.string "hash" (golden "cluster_hash.json")
    (Obs.Json.to_string (Minos.Cluster.report.Minos.Run.to_json (cluster_run ())));
  check Alcotest.string "range + rebalance"
    (golden "cluster_range_rebalance.json")
    (Obs.Json.to_string
       (Minos.Cluster.report.Minos.Run.to_json
          (cluster_run ~policy:Shardmgr.Table.Range ~rebalance:true ())))

let main_metrics t = t.Minos.Cluster.main.Minos.Cluster.run.Shardmgr.Run.metrics
let baseline_metrics t =
  t.Minos.Cluster.baseline.Minos.Cluster.run.Shardmgr.Run.metrics

let test_cluster_telescopes () =
  let t = cluster_run () in
  check exact "main loss accounting exact per shard" (Ok ())
    (Kvcluster.Metrics.check (main_metrics t));
  check exact "baseline loss accounting exact per shard" (Ok ())
    (Kvcluster.Metrics.check (baseline_metrics t));
  (* Every leg survives the merge: turning served requests into expired
     misses on every shard, and into cancelled requests on shard 0 only,
     keeps the identity exact per shard and over the cluster. *)
  let m = main_metrics t in
  let shards =
    Array.mapi
      (fun s (sm : Kvserver.Metrics.t) ->
        let cancelled = if s = 0 then 2 else 0 in
        {
          sm with
          Kvserver.Metrics.served_total = sm.Kvserver.Metrics.served_total - 3 - cancelled;
          expired_misses = sm.Kvserver.Metrics.expired_misses + 3;
          cancelled = sm.Kvserver.Metrics.cancelled + cancelled;
        })
      m.Kvcluster.Metrics.per_shard
  in
  let agg =
    Kvcluster.Metrics.aggregate ~shard_share:m.Kvcluster.Metrics.shard_share
      (Array.map (fun sm -> (sm, Stats.Float_vec.create ())) shards)
  in
  let leg = Obs.Ledger.leg agg.Kvcluster.Metrics.ledger in
  check int "expired misses summed over shards" (3 * Array.length shards)
    (leg "expired_misses");
  check int "one shard's cancelled leg kept" 2 (leg "cancelled");
  check exact "identity holds with the expired-miss and cancelled legs" (Ok ())
    (Kvcluster.Metrics.check agg);
  (* Gaps of opposite sign on two shards cancel in the merged ledger;
     the per-shard check still names the first broken shard. *)
  let skewed =
    Array.mapi
      (fun s (sm : Kvserver.Metrics.t) ->
        let d = if s = 0 then 5 else if s = 1 then -5 else 0 in
        { sm with Kvserver.Metrics.served_total = sm.Kvserver.Metrics.served_total + d })
      m.Kvcluster.Metrics.per_shard
  in
  let agg =
    Kvcluster.Metrics.aggregate ~shard_share:m.Kvcluster.Metrics.shard_share
      (Array.map (fun sm -> (sm, Stats.Float_vec.create ())) skewed)
  in
  check bool "merged ledger blind to cancelling gaps" true
    (Obs.Ledger.telescopes agg.Kvcluster.Metrics.ledger);
  match Kvcluster.Metrics.check agg with
  | Ok () -> Alcotest.fail "per-shard check passed cancelling gaps"
  | Error msg ->
      check bool ("names shard 0 and its gap: " ^ msg) true
        (String.starts_with ~prefix:"shard 0: " msg
        && String.ends_with ~suffix:"(gap -5)" msg)

let test_cluster_minos_beats_keyhash_under_fanout () =
  (* The headline: at the same offered load and identical shard split,
     per-server size-aware sharding keeps every shard's p99 — and the
     multi-GET completion p99 at every fan-out degree — strictly below
     the keyhash baseline's. *)
  let t = cluster_run () in
  let mm = main_metrics t in
  let bm = baseline_metrics t in
  Array.iteri
    (fun s (sm : Kvserver.Metrics.t) ->
      let bs = bm.Kvcluster.Metrics.per_shard.(s) in
      check bool
        (Printf.sprintf "shard %d minos p99 < keyhash p99" s)
        true
        (sm.Kvserver.Metrics.p99_us < bs.Kvserver.Metrics.p99_us))
    mm.Kvcluster.Metrics.per_shard;
  check bool "identical shard shares" true
    (mm.Kvcluster.Metrics.shard_share = bm.Kvcluster.Metrics.shard_share);
  List.iter2
    (fun (m : Kvcluster.Fanout.point) (b : Kvcluster.Fanout.point) ->
      check int "same degree" m.Kvcluster.Fanout.fanout b.Kvcluster.Fanout.fanout;
      check bool
        (Printf.sprintf "fanout %d: minos completion p99 < keyhash"
           m.Kvcluster.Fanout.fanout)
        true
        (m.Kvcluster.Fanout.p99_us < b.Kvcluster.Fanout.p99_us))
    t.Minos.Cluster.main.Minos.Cluster.fanout
    t.Minos.Cluster.baseline.Minos.Cluster.fanout;
  match Minos.Cluster.report.Minos.Run.check t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "Cluster.check: %s" msg

let test_cluster_range_rebalance_improves () =
  let t = cluster_run ~policy:Shardmgr.Table.Range ~rebalance:true () in
  match Shardmgr.Table.rebalance_info t.Minos.Cluster.table with
  | None -> Alcotest.fail "rebalance info missing"
  | Some rb ->
      check bool
        (Printf.sprintf "imbalance %.3f -> %.3f no worse"
           rb.Shardmgr.Table.imbalance_before rb.Shardmgr.Table.imbalance_after)
        true
        (rb.Shardmgr.Table.imbalance_after
         <= rb.Shardmgr.Table.imbalance_before +. 1e-9);
      check bool "moved share sane" true
        (rb.Shardmgr.Table.moved_share >= 0.0 && rb.Shardmgr.Table.moved_share <= 1.0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "balance within bound at 128 vnodes" `Quick
            test_ring_balance;
          Alcotest.test_case "construction deterministic" `Quick
            test_ring_deterministic;
          Alcotest.test_case "remove moves only the victim's keys" `Quick
            test_ring_remove_stability;
          Alcotest.test_case "cannot remove last server" `Quick
            test_ring_remove_last_server_rejected;
        ] );
      ( "range-map",
        [
          Alcotest.test_case "lookup edges" `Quick test_range_map_edges;
          Alcotest.test_case "explicit starts + validation" `Quick
            test_range_map_explicit_starts;
          Alcotest.test_case "rebalance reduces imbalance" `Quick
            test_range_rebalance_reduces_imbalance;
          Alcotest.test_case "degenerate weights raise typed errors" `Quick
            test_range_rebalance_bad_weights_typed;
        ] );
      ( "ring-membership",
        qsuite
          [
            qcheck_ring_remove_only_victim_moves;
            qcheck_ring_add_only_new_server_gains;
          ] );
      ( "fanout",
        [
          Alcotest.test_case "analytic max-of-k = order statistic" `Quick
            test_analytic_max_of_k_vs_order_statistics;
          Alcotest.test_case "analytic matches sampled max" `Quick
            test_analytic_matches_sampled_max;
          Alcotest.test_case "completion p99 grows with degree" `Quick
            test_fanout_p99_grows_with_degree;
          Alcotest.test_case "hedged quantile: degenerate ends" `Quick
            test_hedge_quantile_degenerate_cases;
        ]
        @ qsuite [ prop_hedge_quantile_matches_sampled ] );
      ( "cluster-run",
        [
          Alcotest.test_case "deterministic across MINOS_JOBS" `Slow
            test_cluster_deterministic_across_jobs;
          Alcotest.test_case "loss accounting telescopes" `Slow
            test_cluster_telescopes;
          Alcotest.test_case "minos beats keyhash p99 under fan-out" `Slow
            test_cluster_minos_beats_keyhash_under_fanout;
          Alcotest.test_case "range rebalance improves imbalance" `Slow
            test_cluster_range_rebalance_improves;
          Alcotest.test_case "reproduces the pinned static output" `Slow
            test_cluster_matches_pinned_output;
        ] );
    ]
