(** Request stream generator.

    Draws the operation (GET/PUT per the spec's ratio, plus optional
    ordered SCANs), the key and — for PUTs — the new item size.  The
    large-request probability can be changed at runtime, which is how the
    dynamic workload of §6.6 varies [p_l] while everything else stays
    fixed. *)

type op =
  | Get
  | Put
  | Scan  (** ordered range read over consecutive key ids *)

type request = {
  op : op;
  key_id : int;
      (** key for GET/PUT; first key of the range for SCAN *)
  item_size : int;
      (** For GET: the stored size of the item (what the server will
          discover at lookup).  For PUT: the size being written (carried in
          the request, §3).  For SCAN: the total stored bytes of the
          scanned range — the reply payload. *)
  is_large : bool; (** ground truth w.r.t. the dataset class, for metrics *)
  scan_len : int;  (** number of keys in a SCAN; 0 for GET/PUT *)
}

type t

val create :
  ?seed:int ->
  ?p_large:float ->
  ?get_ratio:float ->
  ?scan_ratio:float ->
  ?scan_len:int ->
  Dataset.t ->
  t
(** [p_large] and [get_ratio] default to the dataset's spec.  Overrides let
    one dataset (whose sizes do not depend on the mix) serve many request
    mixes.  [scan_ratio] (default 0) is the fraction of requests that are
    SCANs of [scan_len] keys (default 16); with [scan_ratio = 0] the RNG
    draw sequence is exactly the scan-free one, so existing runs stay
    byte-identical. *)

val dataset : t -> Dataset.t

val p_large : t -> float
(** Current large-request percentage (initially the spec's).  Only
    test_workload reads it, as the probe of {!set_p_large}. *)

val set_p_large : t -> float -> unit

val next : t -> request
(** Generate the next request. *)

val next_into : t -> unit
(** Allocation-free variant of {!next}: draws the next request (same RNG
    stream and draw order as {!next}) into internal scratch fields, read
    back via the [last_*] accessors below.  The scratch is overwritten by
    the following [next]/[next_into] call. *)

val last_op : t -> op

val last_key_id : t -> int

val last_item_size : t -> int

val last_is_large : t -> bool

val last_scan_len : t -> int
