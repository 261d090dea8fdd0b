(** Request-trace capture, storage and offline analysis.

    §6.2: "if traces of the target workload are available for off-line
    analysis (as typical in production workloads), the threshold between
    large and small requests can be set statically."  This module provides
    that workflow: capture a request stream from a generator (optionally
    with per-request arrival timestamps, so bursts and diurnal ramps
    replay at their recorded pacing), persist it in a compact versioned
    binary format, and derive the static threshold (the 99th percentile of
    item sizes) to feed into {!Kvserver.Config.static_threshold}.

    On disk a trace is ["MNTR" version '\n'] followed by a record count
    and fixed-width little-endian records.  Version 1 is the original
    untimed GET/PUT format; version 2 adds the SCAN opcode, a scan-length
    field and IEEE-double timestamps.  {!save} writes the oldest version
    that can represent the trace; {!load} rejects unknown versions,
    truncated files, trailing bytes and overflowing size fields with an
    explicit [Failure] (the same contract as {!Proto.Wire} decode
    errors). *)

type t

val of_timed : Generator.request array -> float array -> t
(** A timed trace; timestamps are absolute microseconds, non-negative and
    monotone (validated). *)

val requests : t -> Generator.request array

val timestamps : t -> float array
(** Empty for an untimed trace. *)

val length : t -> int

val timed : t -> bool

val capture : Generator.t -> n:int -> t
(** Draw [n] requests from the generator (untimed — see
    {!Scenario.capture} for timed captures under an arrival process). *)

val save : string -> t -> unit
(** Write the trace to a file.  Raises [Sys_error] on I/O failure. *)

val load : string -> t
(** Read a trace back.  Raises [Failure] on a malformed file: bad magic,
    unsupported version, truncation, trailing garbage, bad opcode, or a
    size field that is negative or absurdly large. *)

val replayer : ?loop:bool -> t -> unit -> Generator.request option
(** [replayer trace] returns a pull function yielding the trace in order;
    [loop] (default false) restarts from the beginning instead of
    returning [None] at the end.  Ignores timestamps. *)

(** Offline analysis *)

val size_percentile : t -> float -> float
(** [size_percentile t 0.99]: the static threshold §6.2 describes. *)

val percent_large : t -> float
(** Fraction (in percent) of requests whose item exceeds the large-class
    boundary; a sanity check against the generating spec. *)

val mean_item_size : t -> float
