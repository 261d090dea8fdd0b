(** Random distributions used by the workload generators. *)

module Zipf : sig
  (** Zipfian distribution over ranks [0, n), using the O(1) sampling
      method of Gray et al. ("Quickly generating billion-record synthetic
      databases", SIGMOD 1994), as popularized by YCSB.  Rank 0 is the most
      popular item.  Construction is O(n) (computes the generalized
      harmonic number); sampling is O(1). *)

  type t

  val create : ?run:((unit -> unit) array -> unit) -> n:int -> theta:float -> unit -> t
  (** [create ~n ~theta ()] with [n >= 1] and [0 <= theta < 1].
      [theta = 0.99] is the YCSB default used by the paper.

      Construction cost is the harmonic number's [n] [Float.pow] terms
      (about 43 ms at 1 M ranks on one core of a 2-vCPU x86 VM).  [run tasks]
      must run every task once and return when all have finished, on as
      many domains as it likes (default: in order, on the caller).  The
      tasks compute rounds of up to 4 blocks of 32,768 terms into one
      1 MB buffer, and the calling domain adds each round in index order,
      so {!zetan} and {!eta} are bit-identical whatever [run] does. *)

  val zetan : t -> float
  (** The generalized harmonic number [sum_{i=1..n} 1 / i^theta], summed in
      index order.  Only the tests read it, to check that a parallel build
      is bit-identical to the sequential loop. *)

  val eta : t -> float
  (** Gray et al.'s [eta], derived from {!zetan}.  Read only by the same
      bit-identity tests. *)

  val sample : t -> Rng.t -> int
  (** A rank in [0, n); rank 0 most likely. *)

  val prob : t -> int -> float
  (** [prob t k] is the exact probability of rank [k].  Only test_dsim
      calls it, as the exact distribution {!sample} is checked against. *)
end

module Alias : sig
  (** Vose's alias method: O(1) sampling from an arbitrary finite discrete
      distribution after O(k) preprocessing.  No production code samples
      through it (the workload draws keys with {!Zipf} and sizes from its
      classes); only test_dsim calls it.  Deleting it also deletes
      test_dsim's three alias cases, so it is left for a later change. *)

  type t

  val create : float array -> t
  (** [create weights] normalizes [weights] (all [>= 0], at least one
      [> 0]) into a distribution over indices [0, length). *)

  val sample : t -> Rng.t -> int
end

val uniform_int_in : Rng.t -> lo:int -> hi:int -> int
(** Uniform integer in the inclusive range \[lo, hi\]. *)
