(** Model-side residency: TTL expiry and memory-budgeted eviction for the
    simulated store.

    Tracks, per key id, whether the item is in memory, its TTL deadline
    and its last access, without materializing values — item sizes come
    from the dataset, so [populated + inserts = resident + evicted +
    expired] holds exactly (the eviction-conservation test asserts it).

    Eviction is sampled LRU (pick a few random residents, evict the
    coldest), and the background expiry sweep is chunked and cursor-based
    so the DES can schedule it as a periodic event.  All per-request
    operations ({!on_get}, {!on_put}, {!sweep_step}) are allocation-free. *)

type t

val create : ?ttl_us:float -> ?budget_bytes:int -> ?sweep_us:float -> Workload.Dataset.t -> t
(** Defaults: no TTL ([infinity]), no memory budget ([max_int]), no
    background sweep.  [sweep_us] is the period of the chunked expiry
    sweep the engine schedules for this model; a sweep belongs to a
    residency model, so an engine without one has none.  Raises
    [Invalid_argument] on a non-positive TTL, budget or sweep period. *)

val populate : t -> now:float -> int
(** Load keys in id order until the budget is reached; returns the number
    resident (the whole dataset when it fits). *)

val on_get : t -> now:float -> int -> bool
(** True iff the key is resident and live at [now].  An expired resident
    key is reclaimed here (lazy expiry); any [false] counts as a miss
    ({!expired_misses}). *)

val on_put : t -> now:float -> Dsim.Rng.t -> int -> unit
(** (Re)insert the key and refresh its TTL deadline, then evict sampled-
    LRU victims while over budget. *)

val sweep_step : t -> now:float -> chunk:int -> int
(** Examine up to [chunk] resident keys from a wrapping cursor, reclaiming
    lapsed ones; returns the number reclaimed. *)

val resident : t -> int

val sweep_us : t -> float option
(** The background sweep period given to {!create}, if any. *)

(** The counters below are read only by test_scenarios, which checks the
    residency model's accounting with them. *)

val mem_used : t -> int

val budget_bytes : t -> int

val inserts : t -> int
(** Insertions, including the initial {!populate}. *)

val evicted_keys : t -> int
(** Victims evicted while still live (past-deadline victims count as
    {!expired_keys} instead). *)

val expired_keys : t -> int
(** Keys reclaimed past their deadline — lazily on read, by the sweep, or
    as already-dead eviction victims. *)

val expired_misses : t -> int
(** GETs that found no live resident item (expired, evicted, or never
    loaded) — the new leg of the telescoping identity. *)
