(** Key-level conservation check for the reshard protocol.

    Replays a seeded client stream against per-server key stores driven
    by a compiled {!Table}, modelling the background work each epoch
    boundary stands for (cutover backlog transfer, replica full-copy),
    and counts violations of the protocol's contract: across any
    sequence of reshard events no key is lost, none is left duplicated
    outside its current write-target set, and every read — including
    the dual-phase old-owner fallback — observes the last written
    value.  Deterministic: a pure function of (table, workload, ops,
    seed). *)

type result = {
  ops : int;
  puts : int;
  gets : int;
  fallback_reads : int;  (** dual-phase GETs served by the old owner *)
  transferred : int;  (** cutover + replica-add background copies *)
  lost : int;  (** reads/keys with no surviving copy *)
  duplicated : int;  (** keys left on a server outside their write set *)
  stale : int;  (** reads that observed anything but the last write *)
}

val ok : result -> bool
(** No lost, duplicated, or stale keys. *)

val to_json : result -> Obs.Json.t
(** Every counter above, then ["ok"]: {!ok}. *)

val crashes : servers:int -> Fault.Plan.t -> (float * bool * int) array
(** The plan's [kill-server]/[recover-server] instants over servers
    [0..servers-1], chronological: [(at_us, recover, server)], a
    wildcard expanded to every server, a kill with no recover left
    dead.  Raises [Invalid_argument] on a server id outside the
    range. *)

val check :
  ?ops:int ->
  ?seed:int ->
  ?fault:Fault.Plan.t ->
  workload:Workload.Spec.t ->
  Table.t ->
  result
(** [check ~workload table] replays [ops] (20000) operations from a
    generator seeded [seed + 303] at evenly spaced instants across the
    table's duration.  Raises [Invalid_argument] if [ops < 1].

    [?fault] overlays the plan's [kill-server]/[recover-server] windows
    on the replay: a kill wipes the server's store and marks it dead
    (writes skip it, reads fall back to the owner's live mirrors —
    {!Table.read_owner} — and background copies avoid it); a recover
    resyncs the server's current holdings from surviving copies, counted
    in [transferred].  A kill is only key-{e lossless} when every key it
    holds has a live replica or a dual-route copy elsewhere — the audit
    proves exactly that for the replicated plans the hedge bench runs.
    Raises [Invalid_argument] when a kill names a server id outside the
    table. *)
