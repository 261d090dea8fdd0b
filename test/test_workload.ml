(* Tests for the workload model: specs, datasets, generators and dynamic
   schedules. *)

open Workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let approx t = Alcotest.float t

(* A small spec so tests build datasets quickly. *)
let small_spec =
  {
    Spec.default with
    Spec.n_keys = 20_000;
    n_large_keys = 100;
  }

(* ------------------------------------------------------------------ *)
(* Spec *)

let test_spec_validate () =
  check bool "default valid" true (Spec.validate Spec.default = Ok ());
  check bool "paper scale valid" true (Spec.validate Spec.paper_scale = Ok ());
  let bad p = Spec.validate p <> Ok () in
  check bool "p_large > 100" true (bad { Spec.default with Spec.p_large = 101.0 });
  check bool "s_large below class" true (bad { Spec.default with Spec.s_large_max = 100 });
  check bool "get_ratio" true (bad { Spec.default with Spec.get_ratio = 1.5 });
  check bool "zipf theta" true (bad { Spec.default with Spec.zipf_theta = 1.0 });
  check bool "large >= keys" true
    (bad { Spec.default with Spec.n_large_keys = Spec.default.Spec.n_keys });
  check bool "tiny fraction" true (bad { Spec.default with Spec.tiny_fraction = -0.1 })

(* The largest key count is refused by name past the bound, before any
   dataset is built, and the bound keeps key names unique (8 hex digits)
   and the rank scramble's [rank * mult] (mult a little above
   2,654,435,761) inside 63 bits. *)
let test_spec_max_keys () =
  let at n = { Spec.default with Spec.n_keys = n } in
  check bool "max_keys valid" true (Spec.validate (at Spec.max_keys) = Ok ());
  let msg =
    match Spec.validate (at (Spec.max_keys + 1)) with
    | Ok () -> Alcotest.fail "n_keys above max_keys accepted"
    | Error msg -> msg
  in
  check bool "names n_keys" true (String.starts_with ~prefix:"n_keys " msg);
  Alcotest.check_raises "create refuses" (Invalid_argument ("Dataset.create: " ^ msg))
    (fun () -> ignore (Dataset.create (at (Spec.max_keys + 1))));
  (match Scenario.parse (Printf.sprintf "default,n_keys=%d" (Spec.max_keys + 1)) with
  | Ok _ -> Alcotest.fail "n_keys knob above max_keys accepted"
  | Error e -> check Alcotest.string "knob refused by name" ("default: " ^ msg) e);
  check bool "names unique" true (Spec.max_keys <= 1 lsl 32);
  check bool "scramble fits" true (Spec.max_keys < (max_int - 0x9E37) / (2_654_435_761 + 65_536))

let test_spec_class_boundaries () =
  check int "tiny 1..13" 1 Spec.tiny_min;
  check int "tiny max" 13 Spec.tiny_max;
  check int "small min" 14 Spec.small_min;
  check int "small max" 1400 Spec.small_max;
  check int "large min" 1500 Spec.large_min

(* Table 1's third column: our analytic model within 3 percentage points
   of every row the paper reports. *)
let test_spec_percent_data_large_vs_paper () =
  let paper =
    [ (0.125, 250_000, 25.0); (0.125, 500_000, 40.0); (0.125, 1_000_000, 60.0);
      (0.0625, 500_000, 25.0); (0.25, 500_000, 60.0); (0.5, 500_000, 75.0);
      (0.75, 500_000, 80.0) ]
  in
  List.iter
    (fun (p_large, s_large_max, expected) ->
      let spec = { Spec.default with Spec.p_large; s_large_max } in
      let got = Spec.percent_data_large spec in
      if abs_float (got -. expected) > 3.0 then
        Alcotest.failf "pL=%.4f sL=%d: %.1f%% vs paper %.1f%%" p_large s_large_max got
          expected)
    paper

let test_spec_builders () =
  let s = Spec.with_p_large Spec.default 0.75 in
  check (approx 1e-9) "p_large set" 0.75 s.Spec.p_large;
  let s = Spec.with_s_large Spec.default 250_000 in
  check int "s_large set" 250_000 s.Spec.s_large_max;
  check int "table1 has 7 profiles" 7 (List.length Spec.table1_profiles)

(* ------------------------------------------------------------------ *)
(* Dataset *)

let test_dataset_sizes_in_class_ranges () =
  let d = Dataset.create small_spec in
  check int "n_keys" 20_000 (Dataset.n_keys d);
  check int "n_small" 19_900 (Dataset.n_small_keys d);
  for id = 0 to Dataset.n_keys d - 1 do
    let size = Dataset.size_of_key d id in
    if Dataset.is_large_key d id then begin
      if size < Spec.large_min || size > small_spec.Spec.s_large_max then
        Alcotest.failf "large key %d has size %d" id size
    end
    else if size < Spec.tiny_min || size > Spec.small_max then
      Alcotest.failf "small key %d has size %d" id size
  done

let test_dataset_tiny_fraction () =
  let d = Dataset.create small_spec in
  let tiny = ref 0 in
  for id = 0 to Dataset.n_small_keys d - 1 do
    if Dataset.size_of_key d id <= Spec.tiny_max then incr tiny
  done;
  let frac = float_of_int !tiny /. float_of_int (Dataset.n_small_keys d) in
  if abs_float (frac -. 0.4) > 0.02 then
    Alcotest.failf "tiny fraction %.3f far from 0.4" frac

let test_dataset_deterministic () =
  let a = Dataset.create ~seed:5 small_spec and b = Dataset.create ~seed:5 small_spec in
  for id = 0 to 999 do
    check int "same sizes" (Dataset.size_of_key a id) (Dataset.size_of_key b id)
  done

(* ------------------------------------------------------------------ *)
(* The chunked, parallel build = the sequential loop (Build_oracle) *)

let bits = Int64.bits_of_float

(* [None] when [Dataset.create ~seed ~run spec] equals the oracle in every
   size and in the zipf normalizer's bits, else what differs. *)
let build_mismatch ~seed ~run spec =
  let d = Dataset.create ~seed ~run spec in
  let want = Build_oracle.sizes ~seed spec in
  let n_small = Dataset.n_small_keys d and theta = spec.Spec.zipf_theta in
  let z = Dataset.zipf d in
  let rec first id =
    if id = Array.length want then None
    else if Dataset.size_of_key d id <> want.(id) then
      Some (Printf.sprintf "key %d: size %d, oracle %d" id (Dataset.size_of_key d id) want.(id))
    else first (id + 1)
  in
  if Dataset.n_keys d <> Array.length want then Some "key count"
  else if bits (Dsim.Dist.Zipf.zetan z) <> bits (Build_oracle.zeta n_small theta) then
    Some "zetan bits"
  else if bits (Dsim.Dist.Zipf.eta z) <> bits (Build_oracle.eta n_small theta) then
    Some "eta bits"
  else first 0

let pp_build (n, n_large, theta, tiny_fraction, jobs, seed) =
  Printf.sprintf "n=%d n_large=%d theta=%g tiny=%g jobs=%d seed=%d" n n_large theta
    tiny_fraction jobs seed

(* n on and around the zeta block (32,768), round (4 blocks) and size
   chunk (65,536 keys) boundaries, or random up to 300k; 0, 1 or a random
   number of large keys; every theta and tiny fraction class. *)
let build_case =
  let open QCheck.Gen in
  let* n =
    oneof
      [
        oneofl [ 1; 32_767; 32_768; 32_769; 65_535; 65_536; 65_537; 131_073 ];
        int_range 1 300_000;
      ]
  in
  let* n_large = oneof [ return 0; return (min 1 (n - 1)); int_range 0 (n - 1) ] in
  let* theta = oneofl [ 0.0; 0.5; 0.99 ] in
  let* tiny_fraction = oneofl [ 0.0; 0.4; 1.0 ] in
  let* jobs = int_range 1 4 in
  let* seed = int in
  return (n, n_large, theta, tiny_fraction, jobs, seed)

let prop_build_matches_oracle =
  QCheck.Test.make ~name:"parallel build = sequential loop, bit for bit" ~count:40
    (QCheck.make ~print:pp_build build_case)
    (fun (n, n_large_keys, zipf_theta, tiny_fraction, jobs, seed) ->
      let spec =
        { small_spec with Spec.n_keys = n; n_large_keys; zipf_theta; tiny_fraction }
      in
      match build_mismatch ~seed ~run:(Build_oracle.par_run jobs) spec with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "%s" what)

let test_default_build_matches_oracle () =
  List.iter
    (fun jobs ->
      match build_mismatch ~seed:7 ~run:(Build_oracle.par_run jobs) Spec.default with
      | None -> ()
      | Some what -> Alcotest.failf "jobs %d: %s" jobs what)
    [ 1; 2 ]

(* A seed crafted so that key [id]'s size draw is one [Rng.int] rejects:
   the chunk holding [id] must stop there and hand the rest of the keys
   to a sequential finish, or every later key is one draw off. *)
let test_build_rejected_draw () =
  let case ~what ~spec ~id =
    let n_small = spec.Spec.n_keys - spec.Spec.n_large_keys in
    let draw = if id < n_small then (2 * id) + 1 else n_small + id in
    let span =
      if id >= n_small then spec.Spec.s_large_max - Spec.large_min + 1
      else if spec.Spec.tiny_fraction = 1.0 then Spec.tiny_max - Spec.tiny_min + 1
      else Spec.small_max - Spec.small_min + 1
    in
    let seed = Rng_craft.seed_for ~draw ~out:Rng_craft.rejected_output in
    let g = Dsim.Rng.create seed in
    Dsim.Rng.advance g draw;
    if Dsim.Rng.int_once g span <> -1 then Alcotest.failf "%s: crafted draw not rejected" what;
    List.iter
      (fun run ->
        match build_mismatch ~seed ~run spec with
        | None -> ()
        | Some m -> Alcotest.failf "%s: %s" what m)
      [ Build_oracle.par_run 1; Build_oracle.par_run 4; Build_oracle.reverse_run ]
  in
  let spec n n_large tiny_fraction =
    { small_spec with Spec.n_keys = n; n_large_keys = n_large; tiny_fraction }
  in
  case ~what:"small key, second chunk" ~spec:(spec 200_000 100 0.0) ~id:(65_536 + 1234);
  case ~what:"tiny key, first chunk" ~spec:(spec 100_000 10 1.0) ~id:10;
  case ~what:"large key, second chunk" ~spec:(spec 140_000 70_000 0.4) ~id:73_000

(* The class draw compares the draw's 53 bits with ceil (tiny_fraction *
   2^53) where [Rng.unit_float] compared their float with tiny_fraction:
   seeds crafted to put those bits on either side of the threshold at
   one key must give that key the oracle's class. *)
let test_build_tiny_threshold () =
  List.iter
    (fun tiny_fraction ->
      let threshold = int_of_float (Float.ceil (tiny_fraction *. 0x1p53)) in
      let spec = { small_spec with Spec.n_keys = 100_000; tiny_fraction } and id = 70_000 in
      List.iter
        (fun (r, tiny) ->
          let seed = Rng_craft.seed_for ~draw:(2 * id) ~out:(r lsl 10) in
          let what = Printf.sprintf "tiny_fraction %g, 53 bits %d" tiny_fraction r in
          (match build_mismatch ~seed ~run:(Build_oracle.par_run 2) spec with
          | None -> ()
          | Some m -> Alcotest.failf "%s: %s" what m);
          check bool what tiny (Dataset.size_of_key (Dataset.create ~seed spec) id <= Spec.tiny_max))
        [ (threshold - 1, true); (threshold, false) ])
    [ 0.4; 0.5; 1e-9 ]

let test_dataset_zipf_skew () =
  (* The most popular key should receive far more than the uniform share,
     and popularity must be spread over ids (scrambling). *)
  let d = Dataset.create small_spec in
  let rng = Dsim.Rng.create 3 in
  let counts = Hashtbl.create 1024 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let k = Dataset.sample_small_key d rng in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let top_key, top_count =
    Hashtbl.fold (fun k c ((_, bc) as best) -> if c > bc then (k, c) else best)
      counts (-1, 0)
  in
  let uniform = float_of_int draws /. float_of_int (Dataset.n_small_keys d) in
  if float_of_int top_count < 100.0 *. uniform then
    Alcotest.failf "top key only %dx uniform share"
      (int_of_float (float_of_int top_count /. uniform));
  (* Scrambled: the hottest key should not be id 0 systematically... it can
     be any id; just verify it is a valid small id. *)
  check bool "top key in small range" true (top_key >= 0 && top_key < Dataset.n_small_keys d)

let test_dataset_large_sampling_uniform () =
  let d = Dataset.create small_spec in
  let rng = Dsim.Rng.create 4 in
  for _ = 1 to 1000 do
    let k = Dataset.sample_large_key d rng in
    if not (Dataset.is_large_key d k) then Alcotest.fail "large sample not large"
  done

let test_dataset_get_key_mix () =
  let spec = { small_spec with Spec.p_large = 10.0 } in
  let d = Dataset.create spec in
  let rng = Dsim.Rng.create 6 in
  let large = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Dataset.is_large_key d (Dataset.sample_get_key d rng) then incr large
  done;
  let frac = 100.0 *. float_of_int !large /. float_of_int n in
  if abs_float (frac -. 10.0) > 1.0 then
    Alcotest.failf "large fraction %.2f%% vs 10%%" frac

let test_dataset_put_class_preserved () =
  let d = Dataset.create small_spec in
  let rng = Dsim.Rng.create 8 in
  for _ = 1 to 2000 do
    let key, new_size = Dataset.sample_put d rng in
    let old_size = Dataset.size_of_key d key in
    let classify s = if s <= Spec.tiny_max then `Tiny else if s <= Spec.small_max then `Small else `Large in
    if classify old_size <> classify new_size then
      Alcotest.failf "PUT changed class: %d -> %d" old_size new_size
  done

let test_dataset_scramble_bijective () =
  (* The zipf-rank -> key-id scrambling must be a bijection: every small
     key id reachable, none twice (otherwise popularity mass would pile
     onto some keys and vanish from others). *)
  let spec = { small_spec with Workload.Spec.n_keys = 5_000; n_large_keys = 100 } in
  let d = Dataset.create spec in
  let n = Dataset.n_small_keys d in
  (* Recover the mapping by sampling with theta ~ 0: uniform ranks; touch
     enough samples that a missing id would be glaring.  Cheaper and
     deterministic: check directly via a round of distinct ranks. *)
  let seen = Array.make n false in
  let rng = Dsim.Rng.create 9 in
  (* Dataset does not expose the scramble; approximate the bijectivity
     check by drawing many samples and verifying coverage grows towards n
     (a non-injective map would plateau early). *)
  let draws = 40 * n in
  for _ = 1 to draws do
    seen.(Dataset.sample_small_key d rng) <- true
  done;
  let covered = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen in
  (* Zipf 0.99 over 4900 keys: 40x oversampling reaches the deep tail;
     requiring 85% coverage catches any collapsed mapping. *)
  if covered < 85 * n / 100 then
    Alcotest.failf "only %d/%d key ids reachable through the scramble" covered n

let test_key_name_unique () =
  check bool "distinct" true (Dataset.key_name 1 <> Dataset.key_name 2);
  check Alcotest.string "stable" (Dataset.key_name 42) (Dataset.key_name 42)

(* [key_partition] hashes the id's hex digits in place of the name string;
   it must agree with hashing the name itself. *)
let partition_by_name id =
  Kvstore.Keyhash.partition_of (Kvstore.Keyhash.hash (Dataset.key_name id)) ~bits:30

let prop_key_partition_matches_name_hash =
  let dataset = Dataset.create small_spec in
  QCheck.Test.make ~name:"key_partition = name hash, ids below 2^32" ~count:2000
    QCheck.(int_bound ((1 lsl 32) - 1))
    (fun id -> Dataset.key_partition dataset id = partition_by_name id)

let test_key_partition_every_key () =
  let dataset = Dataset.create { small_spec with Spec.n_keys = 100_000 } in
  for id = 0 to Dataset.n_keys dataset - 1 do
    if Dataset.key_partition dataset id <> partition_by_name id then
      Alcotest.failf "key %d: partition %d, name hash %d" id
        (Dataset.key_partition dataset id) (partition_by_name id)
  done;
  (* No per-key table: the dataset is its 2-byte small-size table plus
     the large keys' sizes, a quarter word per key. *)
  let words = Obj.reachable_words (Obj.repr dataset) in
  if words > Dataset.n_keys dataset / 3 then
    Alcotest.failf "dataset holds %d heap words for %d keys" words (Dataset.n_keys dataset);
  let minor0 = Gc.minor_words () in
  let acc = ref 0 in
  for id = 0 to 9_999 do
    acc := !acc lxor Dataset.key_partition dataset id
  done;
  let words = Gc.minor_words () -. minor0 in
  ignore (Sys.opaque_identity !acc);
  if words > 100.0 then Alcotest.failf "10k key_partition calls allocated %.0f words" words

(* ------------------------------------------------------------------ *)
(* Generator *)

let test_generator_mix () =
  let d = Dataset.create small_spec in
  let g = Generator.create d in
  let gets = ref 0 and larges = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let r = Generator.next g in
    (match r.Generator.op with
    | Generator.Get -> incr gets
    | Generator.Put | Generator.Scan -> ());
    if r.Generator.is_large then incr larges
  done;
  let get_frac = float_of_int !gets /. float_of_int n in
  if abs_float (get_frac -. 0.95) > 0.01 then
    Alcotest.failf "get fraction %.3f vs 0.95" get_frac;
  let large_pct = 100.0 *. float_of_int !larges /. float_of_int n in
  if abs_float (large_pct -. 0.125) > 0.05 then
    Alcotest.failf "large%% %.3f vs 0.125" large_pct

let test_generator_put_carries_new_size () =
  let d = Dataset.create small_spec in
  let g = Generator.create ~get_ratio:0.0 d in
  for _ = 1 to 1000 do
    let r = Generator.next g in
    check bool "is put" true (r.Generator.op = Generator.Put);
    if r.Generator.is_large then begin
      if r.Generator.item_size < Spec.large_min then
        Alcotest.fail "large put size below class"
    end
    else if r.Generator.item_size > Spec.small_max then
      Alcotest.fail "small put size above class"
  done

let test_generator_set_p_large () =
  let d = Dataset.create small_spec in
  let g = Generator.create d in
  Generator.set_p_large g 50.0;
  check (approx 1e-9) "updated" 50.0 (Generator.p_large g);
  let larges = ref 0 in
  for _ = 1 to 10_000 do
    if (Generator.next g).Generator.is_large then incr larges
  done;
  let pct = 100.0 *. float_of_int !larges /. 10_000.0 in
  if abs_float (pct -. 50.0) > 2.0 then Alcotest.failf "p_large %.1f vs 50" pct;
  Alcotest.check_raises "invalid p" (Invalid_argument "Generator.set_p_large: out of [0, 100]")
    (fun () -> Generator.set_p_large g 150.0)

let test_generator_wire_bytes () =
  let d = Dataset.create small_spec in
  let g = Generator.create d in
  let r = Generator.next g in
  let bytes = Generator.request_wire_bytes r ~key_size:8 in
  check bool "positive" true (bytes > 0);
  (* A GET request always fits one frame. *)
  match r.Generator.op with
  | Generator.Get | Generator.Scan -> check bool "single frame" true (bytes < 1600)
  | Generator.Put -> ()

(* ------------------------------------------------------------------ *)
(* Dynamic *)

let test_dynamic_schedule () =
  let sched =
    Dynamic.create
      [ { Dynamic.duration_us = 10.0; p_large = 0.1 };
        { Dynamic.duration_us = 20.0; p_large = 0.5 } ]
  in
  check (approx 1e-9) "total" 30.0 (Dynamic.total_duration sched);
  check (approx 1e-9) "phase 1" 0.1 (Dynamic.p_large_at sched 0.0);
  check (approx 1e-9) "phase 1 end" 0.1 (Dynamic.p_large_at sched 9.99);
  check (approx 1e-9) "phase 2" 0.5 (Dynamic.p_large_at sched 10.0);
  check (approx 1e-9) "past end holds" 0.5 (Dynamic.p_large_at sched 100.0);
  check (Alcotest.list (approx 1e-9)) "boundaries" [ 0.0; 10.0 ]
    (Dynamic.phase_boundaries sched)

let test_dynamic_paper_schedule () =
  let s = Dynamic.paper_schedule in
  check (approx 1e-3) "7 x 20s" (140.0 *. 1e6) (Dynamic.total_duration s);
  check (approx 1e-9) "starts at 0.125" 0.125 (Dynamic.p_large_at s 0.0);
  check (approx 1e-9) "peaks at 0.75" 0.75 (Dynamic.p_large_at s (70.0 *. 1e6));
  check (approx 1e-9) "returns to 0.125" 0.125 (Dynamic.p_large_at s (139.0 *. 1e6))

let test_dynamic_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Dynamic.create: need at least one phase")
    (fun () -> ignore (Dynamic.create []));
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Dynamic.create: phase durations must be positive") (fun () ->
      ignore (Dynamic.create [ { Dynamic.duration_us = 0.0; p_large = 0.1 } ]))

let () =
  Alcotest.run "workload"
    [
      ( "spec",
        [
          Alcotest.test_case "validate" `Quick test_spec_validate;
          Alcotest.test_case "class boundaries" `Quick test_spec_class_boundaries;
          Alcotest.test_case "Table 1 percent data" `Quick
            test_spec_percent_data_large_vs_paper;
          Alcotest.test_case "builders" `Quick test_spec_builders;
          Alcotest.test_case "key count bound" `Quick test_spec_max_keys;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "sizes in class ranges" `Quick
            test_dataset_sizes_in_class_ranges;
          Alcotest.test_case "tiny fraction" `Quick test_dataset_tiny_fraction;
          Alcotest.test_case "deterministic" `Quick test_dataset_deterministic;

          Alcotest.test_case "zipf skew" `Slow test_dataset_zipf_skew;
          Alcotest.test_case "large sampling" `Quick test_dataset_large_sampling_uniform;
          Alcotest.test_case "get key mix" `Slow test_dataset_get_key_mix;
          Alcotest.test_case "put preserves class" `Quick test_dataset_put_class_preserved;
          Alcotest.test_case "scramble bijective" `Slow test_dataset_scramble_bijective;
          Alcotest.test_case "key names" `Quick test_key_name_unique;
          Alcotest.test_case "key partition of every key" `Quick
            test_key_partition_every_key;
          Alcotest.test_case "default build = sequential loop" `Quick
            test_default_build_matches_oracle;
          Alcotest.test_case "rejected draw hands back" `Quick test_build_rejected_draw;
          Alcotest.test_case "class draw at the tiny threshold" `Quick test_build_tiny_threshold;
        ]
        @ List.map
            (fun t -> QCheck_alcotest.to_alcotest t)
            [ prop_key_partition_matches_name_hash; prop_build_matches_oracle ] );
      ( "generator",
        [
          Alcotest.test_case "mix" `Slow test_generator_mix;
          Alcotest.test_case "put sizes" `Quick test_generator_put_carries_new_size;
          Alcotest.test_case "set_p_large" `Quick test_generator_set_p_large;
          Alcotest.test_case "wire bytes" `Quick test_generator_wire_bytes;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "schedule" `Quick test_dynamic_schedule;
          Alcotest.test_case "paper schedule" `Quick test_dynamic_paper_schedule;
          Alcotest.test_case "validation" `Quick test_dynamic_validation;
        ] );
    ]
