(** One runner per table/figure of the paper's evaluation (see DESIGN.md's
    per-experiment index).  Each [figN] returns the figure's data; its
    {!table} entry renders it as a text table the way the paper reports
    it.  The data functions exported below are read outside this module
    only by the tests, which check the paper's claims on the data rather
    than on printed text (perfbench also times {!fig3}).

    All runners accept a {!Experiment.scale} so tests can run miniature
    versions ([Experiment.quick_scale]) while the benchmark harness runs
    the full versions. *)

type scale = Experiment.scale

(** {1 Figure 1 — service time vs item size} *)

val fig1 : unit -> (int * float) list
(** Closed-loop (no queueing) service latency for GETs of each size:
    pipeline + CPU + reply wire time. *)

(** {1 Figure 2 — queueing simulation of size-unaware sharding} *)

type fig2_series = {
  discipline : Queueing.Models.discipline;
  k : float;
  points : (float * float) list; (** (normalized load, p99 in small units) *)
}

val fig2 : ?requests:int -> ?loads:float list -> unit -> fig2_series list

(** {1 Table 1 — item size variability profiles} *)

val table1 : ?mc_samples:int -> unit -> (float * int * float * float) list
(** (p_l, s_l, analytic % data large, Monte-Carlo % data large). *)

(** {1 Figure 3 — throughput vs 99p latency} *)

type curve = {
  design : Experiment.design;
  points : (float * Kvserver.Metrics.t) list;
}

val fig3 : ?scale:scale -> ?loads:float list -> unit -> curve list

(** {1 Figure 4 — 99p latency of large requests} *)

val fig4 : ?scale:scale -> ?loads:float list -> unit -> curve list
(** Minos and HKH+WS only; read [large_p99_us] from the metrics. *)

(** {1 Figure 8 — scaling with network bandwidth via reply sampling} *)

type fig8_series = {
  sampling : float;
  points : (float * Kvserver.Metrics.t) list;
}

val fig8 : ?scale:scale -> ?samplings:float list -> ?loads:float list -> unit ->
  fig8_series list

(** {1 Figure 9 — per-core load breakdown} *)

type fig9_row = {
  p_large : float;
  n_small : int;
  ops_share : float array;     (** per core, fraction of total ops *)
  packet_share : float array;  (** per core, fraction of total packets *)
}

val fig9 : ?scale:scale -> ?p_values:float list -> unit -> fig9_row list

(** {1 Figure 10 — dynamic workload} *)

type fig10_result = {
  minos_p99 : (float * float) list;   (** (window start s, p99 µs) *)
  hkh_ws_p99 : (float * float) list;
  large_cores : (float * int) list;   (** (time s, Minos n_large) *)
}

val fig10 : ?scale:scale -> ?rate_mops:float -> unit -> fig10_result

(** {1 Fan-out analysis (the §1 motivation, quantified)} *)

type fanout_row = {
  fanout : int;
  minos_p99_us : float;  (** p99 of the max of [fanout] parallel requests *)
  hkh_p99_us : float;
}

val fanout : ?scale:scale -> ?fanouts:int list -> ?load:float -> unit -> fanout_row list
(** Monte-Carlo estimate of the response time of a fan-out-[N] operation
    (its latency is the maximum of N independent KV requests), from
    measured latency distributions at [load] (default 4 Mops).  Shows how
    head-of-line blocking compounds with fan-out: with N = 100, {e most}
    user operations hit the server's tail. *)

(** {1 The printable figures} *)

val table : (string * (string * (bool -> unit))) list
(** Every printable figure by name, with a one-line description and its
    printer, in report order: fig1, fig2, table1, fig3-fig10, fanout, the
    ablations
    (adaptive vs static threshold, control-loop cost functions, RX
    stealing, epoch/smoothing sensitivity, HKH CREW vs EREW under skew)
    and numa (Minos at 3 Mops per NUMA domain, for 1, 2 and 4 domains).
    The printer's argument is the quick flag: it picks
    {!Experiment.scale_of} and fig2's request count (60k quick, 300k
    full).  [minos figure] and [bench] both read this table. *)
