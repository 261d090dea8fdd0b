(* Closed-form queueing results: test_queueing checks the discrete-event
   models of Queueing.Models against them where exact answers exist. *)

let check_stable lambda mu =
  if not (lambda < mu) then invalid_arg "Analytic: unstable queue (lambda >= mu)"

(* M/M/1 mean response time, [1 / (mu - lambda)]. *)
let mm1_mean_response ~lambda ~mu =
  check_stable lambda mu;
  1.0 /. (mu -. lambda)

(* Exact quantile of the exponential M/M/1 response time:
   [-ln(1 - q) / (mu - lambda)]. *)
let mm1_response_quantile ~lambda ~mu ~q =
  check_stable lambda mu;
  if q <= 0.0 || q >= 1.0 then invalid_arg "Analytic.mm1_response_quantile: q out of (0,1)";
  -.log (1.0 -. q) /. (mu -. lambda)

(* Pollaczek–Khinchine mean wait, [lambda * E(S^2) / (2 (1 - rho))] with
   [rho = lambda * E(S)]; [es] is E(S), [es2] is E(S^2). *)
let mg1_mean_wait ~lambda ~es ~es2 =
  let rho = lambda *. es in
  if not (rho < 1.0) then invalid_arg "Analytic.mg1_mean_wait: rho >= 1";
  lambda *. es2 /. (2.0 *. (1.0 -. rho))

let mg1_mean_response ~lambda ~es ~es2 = es +. mg1_mean_wait ~lambda ~es ~es2

(* Erlang C: the probability that an arrival waits in an M/M/n queue with
   offered load [lambda / mu] Erlangs ([offered < n]). *)
let mmn_erlang_c ~n ~offered =
  if n < 1 then invalid_arg "Analytic.mmn_erlang_c: n must be >= 1";
  if not (offered < float_of_int n) then
    invalid_arg "Analytic.mmn_erlang_c: offered load >= n";
  (* Compute iteratively to avoid overflow of a^n / n!. *)
  let rec term k acc =
    (* acc = a^k / k! *)
    if k = n then acc else term (k + 1) (acc *. offered /. float_of_int (k + 1))
  in
  let rec sum k acc total =
    if k = n then total
    else begin
      let acc' = acc *. offered /. float_of_int (k + 1) in
      sum (k + 1) acc' (total +. acc')
    end
  in
  let a_n_over_fact = term 0 1.0 in
  let partial_sum = sum 0 1.0 1.0 in
  let rho = offered /. float_of_int n in
  let top = a_n_over_fact /. (1.0 -. rho) in
  top /. (partial_sum -. a_n_over_fact +. top)

let mmn_mean_wait ~n ~lambda ~mu =
  let offered = lambda /. mu in
  let c = mmn_erlang_c ~n ~offered in
  c /. ((float_of_int n *. mu) -. lambda)

(* [(E(S), E(S^2))] of §2.2's two-point service time: [small] with
   probability [1 - p_large], [large] with probability [p_large]. *)
let bimodal_moments ~p_large ~small ~large =
  if p_large < 0.0 || p_large > 1.0 then
    invalid_arg "Analytic.bimodal_moments: p_large out of [0,1]";
  let es = ((1.0 -. p_large) *. small) +. (p_large *. large) in
  let es2 = ((1.0 -. p_large) *. small *. small) +. (p_large *. large *. large) in
  (es, es2)
