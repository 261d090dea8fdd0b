(** Service-cost model of the simulated server.

    Two distinct quantities per request (see DESIGN.md §3):

    - {b CPU occupancy}: the time a core is unavailable while serving the
      request.  Calibrated so that 8 cores peak around the paper's 6.2 Mops
      on the default workload.
    - {b pipeline latency}: fixed non-CPU latency (NIC DMA, PCIe, wires)
      added to every response time but overlapped across requests.
      Calibrated so the default workload's mean service latency is ~5 µs,
      as the paper states for its platform.

    Reply transmission time on the 40 Gbit link is modelled separately by
    {!Netsim.Txsched}.

    The module also provides the {e cost function} used by Minos' control
    loop to size the small/large core pools (§3: "currently uses the number
    of network packets handled to serve the request"). *)

type t = {
  base_cpu_us : float;       (** per-request fixed CPU cost *)
  per_packet_us : float;     (** per network frame handled *)
  per_byte_us : float;       (** per payload byte touched *)
  pipeline_latency_us : float; (** non-CPU latency added to response time *)
  poll_us : float;           (** cost of one RX/ring poll that found work *)
  handoff_us : float;        (** software dispatch of one request *)
  steal_us : float;          (** one steal attempt that found work *)
  lock_us : float;           (** taking the partition spinlock on a PUT *)
  profile_us : float;        (** Minos per-request size-histogram update *)
  epoch_aggregate_us : float;(** Minos per-epoch histogram merge on core 0 *)
}

val default : t

val key_size : int
(** Constant 8-byte keys (§5.3). *)

type op = Workload.Generator.op = Get | Put | Scan
(** The generator's operation type, re-exported so a drawn request's op
    is the engine's without a conversion. *)

val reply_payload : op -> item_size:int -> int
(** Encoded reply bytes: GET (and SCAN) replies carry the value bytes —
    for a SCAN, [item_size] is the {e total} bytes of the scanned range —
    PUT replies do not. *)

val request_payload : op -> item_size:int -> int

val request_frames : op -> item_size:int -> int

val reply_frames : op -> item_size:int -> int

val cpu_time : t -> op -> item_size:int -> float
(** CPU occupancy of serving the request (excluding poll/handoff/steal
    surcharges, which depend on the design). *)

(** The control loop's per-request cost function (§3). *)
type cost_fn =
  | Packets                   (** frames in + frames out (paper default) *)
  | Bytes                     (** payload bytes *)
  | Constant_plus_bytes of float (** [c] + payload bytes *)

val request_cost : cost_fn -> op -> item_size:int -> float

val cost_fn_name : cost_fn -> string

val cost_of_size : cost_fn -> float -> float
(** Cost of a GET for an item of (bucketized, hence float) size; used when
    deriving core allocations from size histograms. *)
