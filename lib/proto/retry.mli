(** Client-side retransmission with exponential backoff (§4.1:
    "Retransmission is handled by the client").

    The driver is transport-agnostic: the caller supplies [send] (emit the
    request, possibly again) and [wait_reply] (block up to a deadline for
    a matching reply).  Paired with a server-side {!Dedup} cache this
    yields exactly-once-observable semantics over a lossy datagram
    transport.

    Two hardening features guard the tail when the server misbehaves:

    - {e Decorrelated jitter}: with an [rng], attempt [n]'s timeout is
      drawn uniformly from [[timeout_us, min cap_us (prev *. backoff)]]
      instead of the deterministic [timeout_us *. backoff^(n-1)].  Synced
      clients thundering-herd their retransmissions into the same epoch
      is exactly the overload amplifier admission control sheds against;
      jitter decorrelates them.  The stream is seeded ({!Dsim.Rng}), so a
      fixed seed reproduces the exact schedule — no global [Random]
      state.
    - {e Retry budget}: a token bucket shared by every call on a
      connection.  Each call earns a fraction of a token; each
      retransmission (not the first send) spends one.  When the bucket is
      empty the call fails fast with [`Budget_exhausted] instead of
      piling timed-out retransmissions onto a server that is already
      shedding load. *)

type config = {
  max_attempts : int;   (** total transmissions, >= 1 *)
  timeout_us : float;   (** wait after the first transmission *)
  backoff : float;      (** timeout multiplier per retry, >= 1.0 *)
  cap_us : float;       (** upper bound on any single attempt's timeout;
                            [infinity] disables the cap *)
}

(** Token-bucket retry budget, shared across the calls of one
    connection. *)
module Budget : sig
  type t

  val create : ?capacity:float -> ?earn_per_call:float -> unit -> t
  (** Bucket starting full at [capacity] (default 10.0) tokens; every
      {!Retry.call} that uses the budget earns [earn_per_call] (default
      0.1) tokens, and every retransmission spends 1.0.  The defaults
      allow a sustained retry rate of one per ten calls — enough for
      sporadic loss, fail-fast under systemic loss. *)

  val tokens : t -> float
  (** Only the tests read it, to check what calls earn and spend. *)

  val try_spend : t -> bool
  (** Take one token; [false] (and no change) when fewer than one
      remains. *)

  val earn : t -> unit
end

val call :
  ?config:config ->
  ?rng:Dsim.Rng.t ->
  ?budget:Budget.t ->
  send:(attempt:int -> unit) ->
  wait_reply:(timeout_us:float -> 'reply option) ->
  unit ->
  ('reply, [ `Timed_out of int | `Budget_exhausted of int ]) result
(** [call ~send ~wait_reply ()] transmits, waits, and retransmits until a
    reply arrives or the attempt budget is exhausted.  [`Timed_out n]
    reports the number of transmissions made; [`Budget_exhausted n] that
    the shared {!Budget} blocked the [n+1]th transmission.  [config]
    defaults to 5 attempts, a 1000 µs initial timeout, 2x backoff and no
    cap.

    With [rng], timeouts jitter decorrelated: attempt 1 waits exactly
    [timeout_us]; attempt [n+1] waits
    [timeout_us +. u *. (min cap_us (t_n *. backoff) -. timeout_us)]
    for [u] uniform in [\[0,1)].  Every attempt's timeout therefore stays
    within [[timeout_us, min cap_us (timeout_us *. backoff^(n-1))]] — the
    same bounds {!total_budget_us} sums. *)

val total_budget_us : config -> float
(** Worst-case time the call can take: the sum of all attempt timeouts at
    their upper bounds (with or without jitter).  A server {!Dedup} cache
    must retain replies at least this long.  Only the tests call it, as
    the upper bound a call's measured duration is checked against. *)

val min_budget_us : config -> float
(** Best-case (fully jittered) total wait:
    [max_attempts *. timeout_us].  Only the tests call it, as the lower
    bound a call's measured duration is checked against. *)
