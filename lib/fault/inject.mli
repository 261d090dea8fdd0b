(** Seeded fault injector: the runtime form of a {!Plan}.

    [create ~seed plan] compiles the plan's events into flat arrays so
    every query below is a linear scan over a handful of windows — no
    allocation, safe on the simulator's per-request hot path.  All
    randomness (packet fates, reorder delays) comes from the injector's
    own SplitMix stream: attaching an injector perturbs none of the
    engine's RNG streams, and the same [(plan, seed)] always draws the
    same fates. *)

type t

type fate =
  | Pass
  | Drop  (** the NIC loses the request *)
  | Duplicate  (** frames delivered twice (retransmission echo) *)
  | Reorder  (** delivered late; draw the delay with {!reorder_delay_us} *)

val create : seed:int -> Plan.t -> t
(** Raises [Invalid_argument] when the plan does not {!Plan.validate}. *)

val slowdown : t -> core:int -> now:float -> float
(** CPU-time multiplier for work started on [core] at [now]: [1.0] when
    healthy, [infinity] inside a full-stall window. *)

val stall_end : t -> core:int -> now:float -> float
(** End of the stall window covering [now] on [core] ([now] itself when
    none): a fully stalled core resumes its in-progress work here. *)

val fate : t -> queue:int -> now:float -> fate
(** Draw the delivery fate for a request arriving on [queue].  Consumes
    one random draw only while a matching net window is open. *)

val reorder_delay_us : t -> queue:int -> now:float -> float
(** Extra delivery delay for a {!Reorder} fate, uniform in
    [(0, reorder_max_us]] of the open window. *)

val rx_capacity : t -> queue:int -> now:float -> int
(** Effective RX ring capacity ([max_int] when unconstrained). *)

val ctrl_delayed : t -> now:float -> bool
(** Whether the control loop's statistics are stale at [now]. *)

val corrupt_threshold : t -> now:float -> float -> float
(** Corrupt a computed control threshold per the open window (identity
    when none). *)

val server_dead : t -> server:int -> now:float -> bool
(** Whether a [kill-server] window covers [now] for [server]: the window
    opens at the kill instant and closes at the earliest matching
    [recover-server] after it (never, when unmatched).  Allocation-free
    scan, safe per-arrival. *)

val dead_windows : t -> (int * float * float) list
(** Compiled [(server, kill_us, recover_us)] windows, [recover_us =
    infinity] when the kill is unmatched.  Cold-path accessor for
    schedulers that want the instants as events. *)
