(** Result of one hedged-cluster run, with copy-level loss accounting.

    The unit of accounting is the {e copy}: every enqueue attempt of a
    request on some replica.  A GET routed once is one copy; its hedge
    or tied backup is a second; a crash-failover reissue is a third.
    Every copy resolves into exactly one of the legs of the [copies]
    ledger, so it telescopes exactly:

    - [served]: the copy completed service and its result was wanted
      (the winning GET copy; every PUT write copy that completed).
    - [net_dropped]: the copy died with a killed server — written off
      by the router at the kill instant (queued or in service), or
      bounced off the dead NIC on arrival before the router detected the
      crash.
    - [rx_dropped] / [shed]: refused by the server's RX ring cap /
      admission control.
    - [hedged_wasted]: a GET copy that completed after its request was
      already won by another copy (the hedge tax, measured).
    - [cancelled]: removed before service — a tied loser cancelled on
      its peer's dequeue, or a queued loser cancelled when the winner
      completed.
    - [in_flight_end]: still queued or in service when the run ended.

    The [requests] ledger sits alongside: request arrivals ([issued])
    split into [completed], [failed] (no routable replica, refused with
    no backup, or failover denied by the retry budget), and
    [pending_end] (still unresolved when the run ended).

    Each server's own engine report, whose request-level ledger counts
    the copies that server saw, is the run's
    ({!Shardmgr.Run.t}[.metrics.per_shard]). *)

type t = {
  copies : Obs.Ledger.t;  (** copy fates, the legs above *)
  requests : Obs.Ledger.t;  (** [completed], [failed], [pending_end] *)
  hedges_issued : int;
  ties_issued : int;
  failovers : int;
      (** crash-failover reissues granted by the budget, one token each *)
  budget_exhausted : int;  (** failovers denied (request failed) *)
  server_killed : int;
  server_recovered : int;
  samples : int;  (** completions with arrival inside the measured window *)
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float;
  hedge_delay_series : (float * float) list;
      (** (epoch end µs, re-estimated hedge delay) *)
  hedge_delay_final_us : float;
  events : int;  (** simulator events processed *)
}
