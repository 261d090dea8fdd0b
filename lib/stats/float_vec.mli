(** Growable array of floats.

    Used to record per-request latencies during a simulation run; keeps
    allocation unboxed ([float array]) and amortized O(1) per append. *)

type t

val create : ?capacity:int -> unit -> t
(** Storage is reserved with [Array.create_float] (here and on growth), so
    capacity that is never pushed to is never written. *)

val length : t -> int

val push : t -> float -> unit

val get : t -> int -> float
(** Raises [Invalid_argument] when out of bounds. *)

val to_array : t -> float array
(** A fresh array with exactly [length t] elements. *)

val unsafe_data : t -> float array
(** The backing store itself, not a copy: its first [length t] elements
    are the samples in push order, and the rest is unwritten capacity.
    For readers that must not copy the sample ({!Quantile}); never write
    to it.  A later [push] may replace it. *)

val iter : (float -> unit) -> t -> unit

val append : t -> t -> unit
(** [append dst src] pushes every element of [src] onto [dst] with a
    single blit (no per-element work).  [src] is unchanged. *)

val sum : t -> float
(** Sum of all elements; allocation-free (unlike [fold ( +. ) 0.0]). *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

val clear : t -> unit
