(** Deterministic pseudo-random number generation for simulations.

    The simulator must be fully deterministic for a given seed so that
    experiments are reproducible and failures can be replayed.  We use a
    native-integer variant of SplitMix64 (Steele et al., "Fast splittable
    pseudorandom number generators", OOPSLA 2014): tiny, fast,
    allocation-free per draw (Int64 state would box on every operation),
    and it supports cheap splitting, which we use to derive independent
    streams for clients, the NIC and each core. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator.  Two generators created with
    the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is statistically
    independent of [t]'s subsequent output. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy and the original then
    produce identical streams. *)

val advance : t -> int -> unit
(** [advance t k] moves [t] past its next [k] draws in O(1): afterwards
    [t] is in the state that [k] calls of {!bits} would leave, because a
    draw adds a fixed odd constant to the state (mod 2^63) and [advance]
    adds [k] times it.  Any [k >= 0] is exact, including counts whose
    product wraps.  Splitting a loop that makes a known number of draws
    per step across domains starts each part here.  Raises
    [Invalid_argument] on a negative [k]. *)

val bits : t -> int
(** Next raw output: 63 uniform bits as a native [int] (negative when the
    top bit is set).  Every other draw below is made of one or more of
    these; a caller comparing [bits t lsr 10] with an integer threshold
    makes {!unit_float}'s decision without boxing a float. *)

val bits64 : t -> int64
(** Next raw output, sign-extended to 64 bits (the generator itself works
    on 63-bit native integers). *)

val int : t -> int -> int
(** [int t n] is uniform in \[0, n).  Requires [n > 0].  Usually one
    draw: it rejects a draw in the last, partial bucket of [n] values
    (probability below [n / 2^62]) and draws again. *)

val int_once : t -> int -> int
(** [int_once t n] makes exactly one draw: what {!int} would return if
    that draw is accepted, or [-1] where {!int} would reject it and draw
    again.  Lets a loop that counts draws (see {!advance}) notice the
    rare extra one.  Requires [n > 0]. *)

val unit_float : t -> float
(** Uniform in \[0, 1), with 53 bits of precision. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean (inverse-CDF
    method).  Used for Poisson inter-arrival times. *)
