(** A run's request-fate ledger: how many requests (or copies) the run
    issued, and the named fates they met, in display order.

    Every runner reports one.  The fate identity
    [issued = sum of the legs] ("the ledger telescopes") is written here
    and nowhere else: a run whose p99 leaves some requests uncounted
    fails {!check} instead of passing quietly. *)

type t

val make : issued:int -> (string * int) list -> t
(** [make ~issued legs].  Raises [Invalid_argument] on a duplicate leg
    name. *)

val issued : t -> int

val leg : t -> string -> int
(** The named leg.  Raises [Invalid_argument] when there is none. *)

val sum : t -> string list -> int
(** Sum of the named legs (e.g. the loss legs of a run). *)

val telescopes : t -> bool
(** [issued = sum of every leg], exactly. *)

val check : t -> (unit, string) result
(** [Ok ()] when the ledger telescopes; otherwise an error naming
    [issued], the sum of the legs and the gap between them. *)

val merge : t list -> t
(** Sum [issued] and each leg by name, in the first ledger's leg order
    (a cluster's ledger is the merge of its shards').  Raises
    [Invalid_argument] on an empty list or when the leg names differ, so
    a leg can never be dropped silently. *)

val pp : Format.formatter -> t -> unit
(** [issued=N leg=N ... (exact|gap N)] on one line. *)

val to_json : t -> Json.t
(** [{"issued": N, <legs>, "telescopes": bool}]: the one ["ledger"]
    object every run record carries. *)
