type plan = {
  threshold : float;
  n_small : int;
  n_large : int;
  ranges : (float * float) array;
}

let initial ~cores =
  { threshold = infinity; n_small = cores; n_large = 0; ranges = [||] }

let standby_core ~cores = cores - 1

(* The cost of one request at each bucket's upper bound: fixed by the
   layout and the cost function, so the control loop computes it once. *)
let bucket_costs hist ~cost_fn =
  let module H = Stats.Log_histogram in
  Array.init (H.buckets hist) (fun i -> Cost_model.cost_of_size cost_fn (H.bucket_upper_bound hist i))

(* Split the above-threshold buckets of [hist] into [n] contiguous ranges
   of approximately equal total cost: walk the cumulative cost and cut
   whenever it crosses a multiple of [total / n]. *)
let split_ranges hist ~costs ~threshold ~n =
  let module H = Stats.Log_histogram in
  let cuts = Array.make (max 0 (n - 1)) 0 in
  let c = if n = 0 then -1 else H.cut_points hist ~weights:costs ~threshold ~into:cuts in
  if c < 0 then
    Array.init n (fun i -> if i = n - 1 then (threshold, infinity) else (threshold, threshold))
  else begin
    (* Cores after the last active one (possible when there are fewer
       distinct buckets than cores) get empty ranges. *)
    let ranges = Array.make n (infinity, infinity) in
    let lo = ref threshold in
    for k = 0 to c - 1 do
      let ub = H.bucket_upper_bound hist cuts.(k) in
      ranges.(k) <- (!lo, ub);
      lo := ub
    done;
    (* Whatever remains belongs to the last active core; its range is
       open-ended so oversized outliers still route somewhere. *)
    ranges.(c) <- (!lo, infinity);
    ranges
  end

let compute_with ~cores ~percentile ~costs ?threshold_override
    ?(extra_large_core = false) hist =
  let module H = Stats.Log_histogram in
  if H.is_empty hist then initial ~cores
  else begin
    let threshold =
      match threshold_override with
      | Some t -> t
      | None -> H.quantile hist percentile
    in
    let sums = [| 0.0; 0.0 |] in
    H.weighted_sums hist ~weights:costs ~threshold ~into:sums;
    let small_cost = sums.(0) and large_cost = sums.(1) in
    let total = small_cost +. large_cost in
    let frac_small = if total > 0.0 then small_cost /. total else 1.0 in
    let n_small =
      int_of_float (ceil (frac_small *. float_of_int cores)) |> max 1 |> min cores
    in
    let n_large = cores - n_small in
    let n_large =
      if extra_large_core && n_large > 0 then min (cores - 1) (n_large + 1) else n_large
    in
    let n_small = cores - n_large in
    let ranges =
      if n_large = 0 then [||]
      else split_ranges hist ~costs ~threshold ~n:n_large
    in
    { threshold; n_small; n_large; ranges }
  end

let compute ~cores ~cost_fn ~percentile ?threshold_override ?extra_large_core hist =
  compute_with ~cores ~percentile ~costs:(bucket_costs hist ~cost_fn)
    ?threshold_override ?extra_large_core hist

(* Control-loop hardening: never let a corrupt or wildly moving threshold
   reach the routing plan.  NaN and non-positive candidates fall back to
   the last good value, and one epoch may move the threshold by at most
   the clamp fraction in either direction. *)
let sanitize ~last_good ~clamp candidate =
  let bad v = Float.is_nan v || v <= 0.0 in
  if bad candidate then if bad last_good then infinity else last_good
  else if Float.is_finite last_good && last_good > 0.0 then
    Float.min (last_good *. (1.0 +. clamp)) (Float.max (last_good /. (1.0 +. clamp)) candidate)
  else candidate

let size_histogram () =
  Stats.Log_histogram.create ~buckets_per_decade:32 ~min_value:1.0 ~max_value:2.0e6 ()

let shed ~watermark ~backlog ~large =
  backlog > watermark && (large || backlog > 4 * watermark)

let fair_share ~batch ~readers =
  let readers = max 1 readers in
  (batch + readers - 1) / readers

module Epoch = struct
  type t = {
    alpha : float;
    percentile : float;
    cost_fn : Cost_model.cost_fn;
    static_threshold : float option; (* the §6.2 variant *)
    clamp : float option;
    extra_large_core : bool; (* the §6.1 variant *)
    mutable smoothed : Stats.Log_histogram.t option;
    mutable last_good : float;
    mutable costs : float array; (* [bucket_costs] of the smoothed layout *)
  }

  let create ?static_threshold ?clamp ?(extra_large_core = false) ~alpha ~percentile
      ~cost_fn () =
    { alpha; percentile; cost_fn; static_threshold; clamp; extra_large_core;
      smoothed = None; last_good = infinity; costs = [||] }

  let last_good t = t.last_good

  let plan t ~cores ~corrupt =
    match t.smoothed with
    | None ->
        { (initial ~cores) with threshold = Option.value t.static_threshold ~default:infinity }
    | Some smoothed ->
        let raw =
          match t.static_threshold with
          | Some th -> th
          | None -> Stats.Log_histogram.quantile smoothed t.percentile
        in
        let threshold =
          match t.clamp with
          | None -> corrupt raw
          | Some clamp -> sanitize ~last_good:t.last_good ~clamp (corrupt raw)
        in
        if Float.is_finite threshold && threshold > 0.0 then t.last_good <- threshold;
        if Array.length t.costs <> Stats.Log_histogram.buckets smoothed then
          t.costs <- bucket_costs smoothed ~cost_fn:t.cost_fn;
        compute_with ~cores ~percentile:t.percentile ~costs:t.costs
          ~threshold_override:threshold ~extra_large_core:t.extra_large_core smoothed

  let step t ~cores ~stale ~force ~corrupt merged =
    let fresh = (not stale) && not (Stats.Log_histogram.is_empty merged) in
    (* Smoothed in place: after the first epoch a step allocates no
       histogram, and [merged] stays the caller's to reuse. *)
    if fresh then begin
      match t.smoothed with
      | None -> t.smoothed <- Some (Stats.Log_histogram.copy merged)
      | Some prev -> Stats.Log_histogram.smooth_into ~prev ~current:merged ~alpha:t.alpha
    end;
    if fresh || force then Some (plan t ~cores ~corrupt) else None
end

(* Top-level recursion: a local [let rec] would close over [plan]/[size]
   and allocate a closure per routed request. *)
let rec route_range ranges size n i =
  if i >= n - 1 then n - 1
  else begin
    let _, hi = ranges.(i) in
    if size <= hi then i else route_range ranges size n (i + 1)
  end

(* Allocation-free, for the per-request dispatch path: [-1] means small. *)
let route_idx plan size =
  if size <= plan.threshold then -1
  else if plan.n_large = 0 then 0 (* standby core, by convention *)
  else route_range plan.ranges size (Array.length plan.ranges) 0

(* [route_range] over an integer size, which a call passes unboxed. *)
let rec route_range_int ranges size n i =
  if i >= n - 1 then n - 1
  else begin
    let _, hi = ranges.(i) in
    if float_of_int size <= hi then i else route_range_int ranges size n (i + 1)
  end

let route_idx_int plan size =
  if float_of_int size <= plan.threshold then -1
  else if plan.n_large = 0 then 0
  else route_range_int plan.ranges size (Array.length plan.ranges) 0

let is_small_core plan id = id < plan.n_small

let large_core_id plan ~cores j =
  if plan.n_large = 0 then standby_core ~cores else plan.n_small + j
