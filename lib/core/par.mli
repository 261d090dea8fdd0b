(** Deterministic parallel execution of independent jobs.

    A reusable pool of OCaml 5 domains underneath the experiment harness:
    every paper artifact is a set of independent simulator runs (sweep
    points, seeds, SLO probes, figure cells), so they can use all cores.

    {b Determinism contract.}  [map f arr] returns exactly
    [Array.map f arr]: results are delivered in input order and each job's
    outcome must depend only on its input.  Jobs therefore must not share
    mutable state — each simulation point owns its own {!Dsim.Sim.t} and
    RNGs, seeds derive from the job itself, and any cross-job cache (e.g.
    {!Experiment.dataset_for}) must be domain-safe.  Under that contract a
    parallel run is bit-identical to a sequential ([MINOS_JOBS=1]) run.
    {!run}'s tasks may share one buffer when each writes its own disjoint
    part and the caller reads it only after [run] returns (which orders
    every task's writes before the caller's reads): the dataset build
    splits its size table and its zipf terms that way, and keeps every
    order-sensitive step, such as a floating-point sum, on the caller.

    Nested calls (a job itself calling [map]) degrade gracefully to
    sequential execution inside the worker, so composed parallel code
    cannot deadlock the pool. *)

val jobs : unit -> int
(** The parallelism degree: the {!set_jobs} override if set, else the
    [MINOS_JOBS] environment variable (read once), else
    [Domain.recommended_domain_count ()].  [1] means fully sequential. *)

val set_jobs : int option -> unit
(** Override the degree ([Some 1] forces sequential execution; [None]
    restores the environment/default behaviour).  Values below 1 are
    clamped to 1.  Used by tests and the CLI's [--jobs]. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** [map f arr] = [Array.map f arr], computed on up to {!jobs} domains.
    The calling domain participates.  If any [f] raises, the first
    exception (in completion order) is re-raised after all jobs finish.
    Production code calls it through {!map_list} and {!run}; only
    test_par calls it directly. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** [map_list f l] = [List.map f l], via {!map}. *)

val run : (unit -> unit) array -> unit
(** [run tasks] runs every task once, via {!map}, and returns when all
    have finished: the task runner {!Workload.Dataset.create} and
    {!Dsim.Dist.Zipf.create} take.  Tasks that write disjoint memory give
    the same result at any {!jobs}. *)
