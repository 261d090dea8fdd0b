(** A concrete dataset instance: one size per key.

    Keys are dense integers [0, n).  The first [n - n_large] ids are the
    tiny/small population (targets of the zipfian distribution); the rest
    are the large population (accessed uniformly, §5.3: "large items ...
    are chosen uniformly at random", which "avoids pathological cases in
    which the most accessed large item is the biggest or the smallest").

    Zipf ranks are scrambled onto small-key ids with a Feistel-style
    permutation so that popularity is independent of the id (and hence of
    the keyhash and of the size assignment). *)

type t

val create : ?seed:int -> ?run:((unit -> unit) array -> unit) -> Spec.t -> t
(** [create ?seed ?run spec] draws every key's size from a generator
    seeded with [seed] (default 7) and builds the zipf sampler over the
    small keys.

    Build cost at the default 1 M keys, on one core of a 2-vCPU x86 VM:
    about 24 ms of size draw (two draws per small key, one per large
    key) and about 43 ms of [Float.pow] for the zipf normalizer
    ({!Dsim.Dist.Zipf.create}).  Both are split into tasks for [run],
    which must run every task once and return when all have finished, on
    as many domains as it likes (default: in order, on the caller;
    [Minos.Experiment.dataset_for] passes [Minos.Par.run]).  Nothing is
    allocated per key.

    {b Exactness.}  The dataset is bit-identical whatever [run] does and
    equals one sequential loop over the keys: chunks of 65,536 keys start
    their generator where that loop would be ({!Dsim.Rng.advance}), a
    chunk that meets a rejected [Rng.int] draw stops there, and the keys
    from the first such stop on are drawn again in order; the zipf
    normalizer is summed in index order.

    Raises [Invalid_argument] when {!Spec.validate} refuses [spec]. *)

val spec : t -> Spec.t

val zipf : t -> Dsim.Dist.Zipf.t
(** The sampler behind {!sample_small_key}. *)

val n_keys : t -> int

val n_small_keys : t -> int

val size_of_key : t -> int -> int
(** Item size in bytes for a key id. *)

val is_large_key : t -> int -> bool

val key_name : int -> string
(** Stable printable key for use with the real {!Kvstore.Store}
    (equivalent to [Printf.sprintf "k%08x" id], without the formatter). *)

val key_partition : t -> int -> int
(** The 30-bit {!Kvstore.Keyhash} partition index of the key's name hash:
    [Keyhash.partition_of (Keyhash.hash (key_name id)) ~bits:30],
    computed from the id's hex digits without building the name, so the
    engine's PUT dispatch allocates nothing and the dataset stores no
    per-key hash. *)

val sample_small_key : t -> Dsim.Rng.t -> int
(** A zipf-distributed tiny/small key. *)

val sample_large_key : t -> Dsim.Rng.t -> int
(** A uniformly distributed large key. *)

val sample_get_key : t -> Dsim.Rng.t -> int
(** Pick a key for a GET: with probability [p_large/100] a uniform large
    key, otherwise a zipf-distributed small key. *)

val sample_put : t -> Dsim.Rng.t -> int * int
(** Pick a key and the new value size for a PUT.  The new size is drawn
    from the key's own class (tiny/small/large), modelling updates that
    keep an item's character without keeping its exact size. *)

val total_value_bytes : t -> int
(** Sum of all stored item sizes — the resident-set size of the fully
    populated dataset, which a memory budget is measured against. *)

val mean_item_bytes_per_request : t -> float
(** Expected item size per request under the spec's request mix. *)
