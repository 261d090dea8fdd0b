type t = {
  copies : Obs.Ledger.t;
  requests : Obs.Ledger.t;
  hedges_issued : int;
  ties_issued : int;
  failovers : int;
  budget_exhausted : int;
  server_killed : int;
  server_recovered : int;
  samples : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float;
  hedge_delay_series : (float * float) list;
  hedge_delay_final_us : float;
  events : int;
}
