(* Closed-form and Monte-Carlo fan-out oracles: test_cluster checks
   Kvcluster.Fanout.measure's fan-out p99 against [analytic_max_quantile]
   and a hedge's gain against [analytic_hedge_quantile], which
   [sample_hedge_quantile] cross-checks by resampling. *)

(* [analytic_max_quantile sorted ~k ~q]: the [q]-quantile of the max of
   [k] iid draws from the empirical distribution given by [sorted]
   (ascending), i.e. the [q^(1/k)]-quantile of the base distribution —
   the inverse-CDF identity [P(max <= x) = F(x)^k]. *)
let analytic_max_quantile sorted ~k ~q =
  if k < 1 then invalid_arg "Fanout_oracle.analytic_max_quantile: k must be >= 1";
  if not (q > 0.0 && q <= 1.0) then
    invalid_arg "Fanout_oracle.analytic_max_quantile: q out of (0, 1]";
  Quantile_oracle.of_sorted sorted (q ** (1.0 /. float_of_int k))

(* Empirical CDF of [sorted]: fraction of samples <= x, by binary search
   for the first index strictly greater than x. *)
let ecdf sorted x =
  let n = Array.length sorted in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sorted.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  float_of_int !lo /. float_of_int n

(* [analytic_hedge_quantile sorted ~d ~q]: the [q]-quantile of a hedged
   request's completion time [min (X1, d + X2)] — primary issued at 0,
   backup after delay [d], both latencies iid draws from [sorted].  [d = 0]
   degenerates to min-of-two (tied requests); large [d] recovers the
   unhedged quantile. *)
let analytic_hedge_quantile sorted ~d ~q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Fanout_oracle.analytic_hedge_quantile: empty sample";
  if not (Float.is_finite d && d >= 0.0) then
    invalid_arg "Fanout_oracle.analytic_hedge_quantile: d must be finite and >= 0";
  if not (q > 0.0 && q <= 1.0) then
    invalid_arg "Fanout_oracle.analytic_hedge_quantile: q out of (0, 1]";
  (* Completion is min (X1, d + X2) with X1, X2 iid from the empirical
     distribution, so G(x) = F(x) + (1 - F(x)) * F(x - d).  G only jumps
     at the sample points and their d-shifts; invert over that set. *)
  let g x = ecdf sorted x +. ((1.0 -. ecdf sorted x) *. ecdf sorted (x -. d)) in
  let candidates = Array.make (2 * n) 0.0 in
  Array.blit sorted 0 candidates 0 n;
  for i = 0 to n - 1 do
    candidates.(n + i) <- sorted.(i) +. d
  done;
  Array.sort Float.compare candidates;
  let lo = ref 0 and hi = ref (Array.length candidates - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if g candidates.(mid) >= q then hi := mid else lo := mid + 1
  done;
  candidates.(!lo)

(* Monte-Carlo estimate of [analytic_hedge_quantile]: [trials] draws of
   [min (X1, d + X2)] resampled from [sorted] with [rng]. *)
let sample_hedge_quantile ~rng sorted ~d ~q ~trials =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Fanout_oracle.sample_hedge_quantile: empty sample";
  if trials < 1 then invalid_arg "Fanout_oracle.sample_hedge_quantile: trials must be >= 1";
  let samples = Stats.Float_vec.create ~capacity:trials () in
  for _ = 1 to trials do
    let x1 = sorted.(Dsim.Rng.int rng n) in
    let x2 = sorted.(Dsim.Rng.int rng n) in
    Stats.Float_vec.push samples (Float.min x1 (d +. x2))
  done;
  Stats.Quantile.of_vec samples q
