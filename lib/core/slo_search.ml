type result = {
  max_mops : float;
  metrics : Kvserver.Metrics.t option;
  evaluations : int;
}

let meets (m : Kvserver.Metrics.t) ~slo_p99_us =
  m.Kvserver.Metrics.stable
  && (not (Float.is_nan m.Kvserver.Metrics.p99_us))
  && m.Kvserver.Metrics.p99_us <= slo_p99_us

let search ~eval ~slo_p99_us ~lo_mops ~hi_mops ~iters =
  if not (0.0 < lo_mops && lo_mops < hi_mops) then
    invalid_arg "Slo_search.search: need 0 < lo < hi";
  (* Establish the bracket: both endpoints are probed up front — in
     parallel when domains are available — so the bisection starts from a
     known [lo passes, hi fails] interval.  Probing [hi] eagerly also makes
     the evaluation count independent of the outcome, which keeps parallel
     and sequential runs identical. *)
  let m_lo, m_hi =
    match Par.map_list eval [ lo_mops; hi_mops ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let evaluations = ref 2 in
  let probe rate =
    incr evaluations;
    eval rate
  in
  if not (meets m_lo ~slo_p99_us) then
    { max_mops = 0.0; metrics = None; evaluations = !evaluations }
  else begin
    if meets m_hi ~slo_p99_us then
      { max_mops = hi_mops; metrics = Some m_hi; evaluations = !evaluations }
    else begin
      let best = ref (lo_mops, m_lo) in
      let lo = ref lo_mops and hi = ref hi_mops in
      for _ = 1 to iters do
        let mid = 0.5 *. (!lo +. !hi) in
        let m = probe mid in
        if meets m ~slo_p99_us then begin
          best := (mid, m);
          lo := mid
        end
        else hi := mid
      done;
      let rate, m = !best in
      { max_mops = rate; metrics = Some m; evaluations = !evaluations }
    end
  end

(* Pick a handoff design's core count once per workload at a moderate
   load, then keep it fixed during the bisection. *)
let handoff_for (s : Experiment.Spec.t) =
  let score h =
    let cfg = { s.Experiment.Spec.cfg with Kvserver.Config.handoff_cores = h } in
    let m =
      s |> Experiment.Spec.with_cfg cfg |> Experiment.Spec.with_load 3.0
      |> Experiment.run_spec
    in
    (m.Kvserver.Metrics.stable, m.Kvserver.Metrics.throughput_mops)
  in
  [ 1; 2; 3 ]
  |> List.map (fun h -> (h, score h))
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.hd |> fst

let max_under_slo (s : Experiment.Spec.t) ~slo_us ~iters =
  let s =
    if Kvserver.Design.supports s.Experiment.Spec.design Kvserver.Design.Handoff_cores
    then
      Experiment.Spec.with_cfg
        { s.Experiment.Spec.cfg with Kvserver.Config.handoff_cores = handoff_for s }
        s
    else s
  in
  let eval rate = Experiment.run_spec (Experiment.Spec.with_load rate s) in
  search ~eval ~slo_p99_us:slo_us ~lo_mops:0.25 ~hi_mops:8.0 ~iters
