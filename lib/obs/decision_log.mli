(** Control-loop / reshard decision log.

    One entry per control epoch ({!record}: when it fired, the size
    threshold it chose and the resulting small/large core split) or per
    shard-manager protocol state change ({!record_reshard}: drain /
    dual-route / cutover / replica events, epoch-stamped).  Bounded and
    preallocated; recording never allocates.  Entries past the capacity
    are counted in {!dropped}. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 4096 entries. *)

val record :
  t ->
  ?lost:int ->
  now:float ->
  threshold:float ->
  n_small:int ->
  n_large:int ->
  unit ->
  unit
(** A control-loop entry (kind {!kind_control}).  [lost] is the
    cumulative count of requests lost so far (NIC drops + ring drops +
    shed), so traces show loss accumulating per epoch. *)

(** {2 Reshard entries} *)

val kind_control : int
val kind_drain_start : int
val kind_dual_start : int
val kind_cutover : int
val kind_replica_add : int
val kind_replica_drop : int
val kind_server_kill : int
val kind_server_recover : int
val kind_hedge_delay : int
val kind_name : int -> string

val record_reshard :
  t -> kind:int -> now:float -> until:float -> server:int -> shard:int ->
  epoch:int -> unit
(** A shard-manager protocol state change.  [until] is the window end
    for {!kind_dual_start} (nan for instants); [server] the
    joining/leaving server or replica id ([-1] if n/a); [shard] the
    replicated shard or the cutover key group; [epoch] the routing epoch
    in force.  Raises [Invalid_argument] on a non-reshard kind. *)

(** {2 Hedge-cluster entries} *)

val record_hedge :
  t -> kind:int -> now:float -> server:int -> delay_us:float -> unit
(** A tail-cutting event: a server crash ({!kind_server_kill}) or
    restart ({!kind_server_recover}) with [server] set and [delay_us]
    nan, or a hedge-delay re-estimate ({!kind_hedge_delay}) with the new
    delay in [delay_us] (readable back through {!threshold}) and
    [server] [-1].  Raises [Invalid_argument] on a non-hedge kind. *)

val length : t -> int
val dropped : t -> int
(** Entries lost to the bounded log.  Only test_obs reads it, to check
    the bound. *)

val kind : t -> int -> int
val time : t -> int -> float
val until_us : t -> int -> float
val threshold : t -> int -> float
val n_small : t -> int -> int
val n_large : t -> int -> int
val lost : t -> int -> int
val server : t -> int -> int
val shard : t -> int -> int
val epoch : t -> int -> int

val moves : t -> int
(** Number of control epochs whose decision changed [n_large] — how
    often the control loop re-partitioned the cores.  Reshard entries
    are skipped. *)
