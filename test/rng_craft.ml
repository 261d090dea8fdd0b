(* Seeds crafted to put a chosen output at a chosen draw of a
   [Dsim.Rng] stream, for tests of the rare paths (an [Rng.int] draw that
   is rejected).  The generator is SplitMix on 63-bit native ints: a draw
   adds [gamma] to the state and outputs [mix state], [create seed] starts
   from [mix seed], and [mix] is invertible (xor-shifts and odd
   multipliers).  The constants are copied from rng.ml; [seed_for]'s
   callers check the crafted stream through [Dsim.Rng] itself, so a
   drifted constant fails loudly instead of testing nothing. *)

let gamma = 0x1E3779B97F4A7C15
let mult1 = 0x2F58476D1CE4E5B9
let mult2 = 0x14D049BB133111EB

(* The x with [x lxor (x lsr s) = y]: each pass fixes [s] more top bits. *)
let unxorshift y s =
  let x = ref y in
  for _ = 0 to 63 / s do
    x := y lxor (!x lsr s)
  done;
  !x

(* The inverse of an odd [c] mod 2^63 by Newton's iteration, which
   doubles the correct low bits each step (3 to start). *)
let inverse c =
  let x = ref c in
  for _ = 1 to 6 do
    x := !x * (2 - (c * !x))
  done;
  !x

let unmix z =
  let z = unxorshift z 31 * inverse mult2 in
  let z = unxorshift z 27 * inverse mult1 in
  unxorshift z 30

(* A seed whose stream outputs [out] at draw number [draw] (0-based). *)
let seed_for ~draw ~out = unmix (unmix out - ((draw + 1) * gamma))

(* Every output bit set: [Rng.int] reads it as [max_int], which falls in
   the last, partial bucket (a rejection) unless [n] divides 2^62. *)
let rejected_output = -1
