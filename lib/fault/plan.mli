(** Declarative, deterministic fault plans.

    A plan is a list of typed events over simulated (or, for the native
    runtime, run-relative wall) time, in microseconds.  Plans are pure
    data: all randomness (which packet is dropped, how far a reorder is
    delayed) lives in {!Inject}, seeded separately, so the same
    [(plan, seed)] pair always reproduces the same faulty execution.

    Time windows are half-open [[from_us, until_us)]; [infinity] means
    "until the end of the run".  A queue or core index of {!all} ([-1])
    matches every queue/core. *)

type corrupt =
  | Nan  (** the control loop computes a NaN threshold *)
  | Scale of float  (** threshold multiplied by a wild factor *)

type event =
  | Core_stall of {
      core : int;
      from_us : float;
      until_us : float;
      factor : float;
          (** CPU-time multiplier while the window is open: [2.0] halves
              the core's speed, [infinity] stalls it outright (work
              resumes when the window closes). *)
    }
  | Net_fault of {
      queue : int;  (** RX queue, or {!all} *)
      from_us : float;
      until_us : float;
      drop : float;  (** per-request probability the NIC loses it *)
      dup : float;
          (** probability the request's frames arrive twice (a
              retransmission echo: same request, double the RX frames) *)
      reorder : float;  (** probability of a late, out-of-order delivery *)
      reorder_max_us : float;  (** max extra delivery delay for reorders *)
    }
  | Ring_squeeze of {
      queue : int;  (** RX queue, or {!all} *)
      from_us : float;
      until_us : float;
      capacity : int;  (** arrivals beyond this depth are tail-dropped *)
    }
  | Ctrl_delay of { from_us : float; until_us : float }
      (** the control loop sees no fresh statistics (stale windows) *)
  | Ctrl_corrupt of { from_us : float; until_us : float; mode : corrupt }
      (** the computed threshold is corrupted before it is applied *)
  | Kill_server of { server : int; at_us : float }
      (** the server process crashes at [at_us]: queues freeze, in-service
          requests never complete, arrivals bounce.  Stays dead until a
          matching [Recover_server], else forever. *)
  | Recover_server of { server : int; at_us : float }
      (** the crashed server restarts (empty, warm) at [at_us] *)

type t = { name : string; events : event list }

val all : int
(** Wildcard core/queue index ([-1]). *)

val empty : t
(** The plan with no events.  Only test_fault uses it, as the fault-free
    baseline an injector must leave untouched. *)

val validate : t -> (unit, string) result
(** Rates in [[0, 1]] with [drop +. dup +. reorder <= 1], windows with
    [from_us < until_us], factors [>= 1], capacities [>= 1]. *)

val canned :
  string -> cores:int -> warmup_us:float -> duration_us:float -> t option
(** The built-in chaos scenarios, window positions scaled to the run:
    ["core-stall"] (a 50x slowdown of core 1 spanning most of the
    measurement window), ["loss10"] (10 % drop + 10 % duplication + 2 %
    reorder on every queue), ["overload"] (every RX ring squeezed to a
    small capacity), ["ctrl-corrupt"] (NaN threshold early, stale stats
    late).  [None] for unknown names. *)

val canned_names : string list

val of_string : ?name:string -> string -> (t, string) result
(** Parse the textual plan format, one event per line:
    {v
    # comment
    core-stall core=1 from=500000 until=1200000 factor=50
    net queue=* from=0 until=end drop=0.1 dup=0.1 reorder=0.02 reorder-max=200
    squeeze queue=* from=0 until=end capacity=256
    ctrl-delay from=800000 until=end
    ctrl-corrupt from=500000 until=800000 mode=nan
    kill-server server=2 at=700000
    recover-server server=2 at=1100000
    v}
    [queue=*]/[core=*] are wildcards; [until=end] means [infinity];
    [mode] is [nan] or [x<float>] (scale).  A key the event does not
    take, or a key given twice, is an error naming it.  The result is
    validated.  Production reads plans through {!of_file}; the tests
    call this parser directly, and fuzz it. *)

val of_file : string -> (t, string) result

val to_string : t -> string
(** Round-trippable rendering in the {!of_string} format.  Only the
    tests call it, to check that the parser round-trips. *)
