(** Streaming mean (Welford's online update).

    Constant memory; numerically stable. *)

type t

val create : unit -> t

val add : t -> float -> unit

val mean : t -> float
(** 0 when empty. *)
