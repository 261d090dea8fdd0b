(** Minos' adaptation logic (§3), as pure, unit-testable functions.

    Every epoch, core 0 merges the per-core item-size histograms
    ({!size_histogram}) and {!Epoch.step} smooths them against the
    previous epoch and derives a {!plan}; both executors run this loop:

    - the size {b threshold}: the configured percentile (99th) of observed
      item sizes — by construction the small cores serve the smallest 99 %
      of requests;
    - the {b core split}: the number of small cores is the ceiling of the
      total core count times the fraction of processing cost generated by
      small requests;
    - the {b size ranges}: large cores each serve a contiguous,
      non-overlapping size range of (approximately) equal total cost, so
      load is balanced and large requests are themselves sharded by size.

    When every core would be small, the plan designates a standby large
    core (the last one) that serves small requests until a large one
    arrives. *)

type plan = {
  threshold : float;      (** item sizes <= threshold are "small" *)
  n_small : int;
  n_large : int;          (** 0 means standby mode *)
  ranges : (float * float) array;
      (** per large core: sizes in (lo, hi] route to it; [ranges] has
          [n_large] entries (empty when in standby mode) *)
}

val initial : cores:int -> plan
(** Cold start: infinite threshold, all cores small, standby designated. *)

val compute :
  cores:int ->
  cost_fn:Cost_model.cost_fn ->
  percentile:float ->
  ?threshold_override:float ->
  ?extra_large_core:bool ->
  Stats.Log_histogram.t ->
  plan
(** Derive the plan for the next epoch from the smoothed size histogram.
    [threshold_override] implements the §6.2 static-threshold variant.
    [extra_large_core] implements the §6.1 variant that over-allocates one
    large core (to be paired with RX stealing).  An empty histogram yields
    {!initial}. *)

val size_histogram : unit -> Stats.Log_histogram.t
(** The one item-size histogram layout: 32 buckets per decade, 1 B–2 MB. *)

val shed : watermark:int -> backlog:int -> large:bool -> bool
(** Shed-large-first admission: above the watermark the large class is
    shed, the small class only above four times it. *)

val fair_share : batch:int -> readers:int -> int
(** [ceil (batch / max 1 readers)]: what a small core polls from each
    large core's RX queue per batch, so all queues drain alike (§3). *)

module Epoch : sig
  type t
  (** The smoothed histogram and the last good threshold. *)

  val create :
    ?static_threshold:float -> ?clamp:float -> ?extra_large_core:bool ->
    alpha:float -> percentile:float -> cost_fn:Cost_model.cost_fn -> unit -> t
  (** [static_threshold] is the §6.2 variant, [extra_large_core] the §6.1
      one ({!compute}); [clamp] hardens the threshold (see {!plan}). *)

  val step :
    t -> cores:int -> stale:bool -> force:bool -> corrupt:(float -> float) ->
    Stats.Log_histogram.t -> plan option
  (** One control tick over the merged histogram, which [step] takes
      over.  A [stale] tick (a fault delays the stat pipeline) or an empty
      merge discards it and yields [None] unless [force] (the active core
      set changed); otherwise it is EMA-smoothed in and {!plan} follows. *)

  val plan : t -> cores:int -> corrupt:(float -> float) -> plan
  (** {!initial} (with the static threshold, if any) before the first
      histogram.  After it: the static threshold or the smoothed
      percentile, then [corrupt] (a fault plan's corruption window), then,
      with a clamp [c], hardening — NaN or non-positive falls back to the
      last good threshold, and the move is bounded to a factor [1 + c] —
      then {!compute}.  A finite, positive threshold becomes the last good
      one. *)

  val last_good : t -> float
  (** [infinity] until a finite, positive one.  Only test_server reads
      it, to check that a corrupt threshold is never adopted. *)
end

val route_idx : plan -> float -> int
(** [route_idx plan size]: [-1] if the request is small, else the
    large-core index [0 <= j < n_large].  In standby mode ([n_large = 0])
    large requests return [0] — by convention the standby core.
    Allocation-free (an [int option] would box every [Some j]). *)

val route_idx_int : plan -> int -> int
(** {!route_idx} of an integer size: the native server's item sizes are
    integers, and a [float] argument would be boxed at each call. *)

val standby_core : cores:int -> int
(** Identity of the standby large core (the last core). *)

val is_small_core : plan -> int -> bool
(** Whether the given core id currently serves small requests (standby
    cores count as small). *)

val large_core_id : plan -> cores:int -> int -> int
(** [large_core_id plan ~cores j] maps a large-core index from {!route_idx} to
    a physical core id.  Large cores occupy the tail of the id space. *)
