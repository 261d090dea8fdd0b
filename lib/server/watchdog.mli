(** Stalled-core detection for the Minos control loop.

    Consumes the same per-epoch signals {!Obs.Timeline} records — per-core
    served-operation progress and RX queue depth — and decides, with
    hysteresis, whether one core should be excluded from the small/large
    split.  (Utilization alone cannot distinguish a degraded core from a
    loaded one: a 50x-slowed core is fully busy; a dead one is fully
    idle.  Progress-versus-peers catches both.)

    A core is {e sick} in an epoch when its RX queue is backed up beyond
    64 requests {e and} it served under a quarter of its best peer's
    operations — that covers both a dead core (utilization ~0, queue
    growing) and a degraded one (fully busy at 50x cost, queue growing).
    2 consecutive sick epochs exclude it; [forgive_after] epochs later
    it is readmitted on probation and must prove itself again (a
    still-sick core is re-condemned after another 2 epochs).  At most
    one core is excluded at a time, and never below 2 remaining active
    cores. *)

type t

type verdict =
  | No_change
  | Exclude of int  (** physical core id to remove from the active set *)
  | Readmit of int  (** probation over: return the core to duty *)

val create : ?forgive_after:int -> cores:int -> unit -> t
(** Condemn after 2 sick epochs, forgive after [forgive_after] (default
    8) excluded epochs; depth floor 64 requests, progress fraction
    0.25. *)

val observe : t -> ops:int array -> depth:(int -> int) -> verdict
(** Called once per control epoch with the live cumulative per-core
    served-ops counters ({!Engine.core_ops_live}); the watchdog keeps
    last-epoch snapshots internally and diffs.  Returns at most one
    exclusion/readmission per call. *)

val excluded : t -> int
(** Currently excluded physical core, [-1] when none.  Only test_fault
    reads it, to check which core the watchdog benched. *)
