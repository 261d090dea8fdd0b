type t = {
  issued : int;
  served : int;
  net_dropped : int;
  rx_dropped : int;
  shed : int;
  hedged_wasted : int;
  cancelled : int;
  in_flight_end : int;
  requests : int;
  completed : int;
  failed : int;
  pending_end : int;
  hedges_issued : int;
  ties_issued : int;
  failovers : int;
  budget_exhausted : int;
  budget_spent : float;
  server_killed : int;
  server_recovered : int;
  samples : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float;
  p99_series : (float * float) list;
  hedge_delay_series : (float * float) list;
  hedge_delay_final_us : float;
  events : int;
  engines : Kvserver.Metrics.t array;
}

let telescopes m =
  m.issued
  = m.served + m.net_dropped + m.rx_dropped + m.shed + m.hedged_wasted
    + m.cancelled + m.in_flight_end

let engines_telescope m = Array.for_all Kvserver.Metrics.telescopes m.engines

let requests_account m = m.requests = m.completed + m.failed + m.pending_end
