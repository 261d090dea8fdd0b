(** 64-bit key hashing and hash-bit allocation.

    Following MICA (and §4.2 of the paper), one keyhash drives three
    decisions: the partition that owns the key (high bits), the bucket
    within the partition (middle bits), and a 16-bit tag stored in the
    bucket slot to filter false candidates before the full key compare. *)

val hash : string -> int64
(** FNV-1a 64 with a final avalanche mix; deterministic across runs. *)

val partition_of : int64 -> bits:int -> int
(** [partition_of h ~bits] uses the top [bits] bits: a value in
    [0, 2^bits). *)

val bucket_of : int64 -> bits:int -> int
(** [bucket_of h ~bits] uses the middle bits (below the 16 partition bits):
    a value in [0, 2^bits). *)

val tag_of : int64 -> int
(** The low 16 bits, with 0 mapped to 1 so that tag 0 can mean "empty
    slot". *)

val fields : string -> partition_bits:int -> bucket_bits:int -> int
(** [fields key ~partition_bits ~bucket_bits] is the key's partition,
    bucket and tag in one immediate,
    [(partition lsl (bucket_bits + 16)) lor (bucket lsl 16) lor tag], as
    {!partition_of}, {!bucket_of} and {!tag_of} compute them from
    {!hash}.  It allocates nothing, where a boxed {!hash} result would.
    [partition_bits + bucket_bits <= 46] required. *)

val hex_name_partition : prefix:char -> int -> bits:int -> int
(** [hex_name_partition ~prefix id ~bits] is
    [partition_of (hash name) ~bits] for [name] = [prefix] followed by the
    low 32 bits of [id] as 8 lowercase hex digits (["k%08x"] for
    [prefix = 'k']).  It hashes the digits as it derives them, so no name
    string is built and nothing is allocated. *)
