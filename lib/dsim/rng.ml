(* State and mixing use native [int] arithmetic, wrapping mod 2^63.  The
   original implementation worked on [Int64.t]; without flambda the
   compiler boxes every Int64 intermediate, which put ~8 words of minor
   allocation in each draw — inside the innermost loop of every
   simulation.  The mixer is SplitMix64's finalizer with the constants
   truncated to fit native integers (odd, near the original bit
   patterns); output quality stays far above what the simulation needs,
   and the distribution tests guard it. *)
type t = { mutable state : int }

let golden_gamma = 0x1E3779B97F4A7C15

let[@inline] mix z =
  let z = (z lxor (z lsr 30)) * 0x2F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let create seed = { state = mix seed }

let[@inline] bits t =
  t.state <- t.state + golden_gamma;
  mix t.state

let advance t k =
  if k < 0 then invalid_arg "Rng.advance: negative count";
  (* [bits] adds [golden_gamma] once per draw, and native [int] arithmetic
     wraps mod 2^63 either way, so k draws are one multiply-add. *)
  t.state <- t.state + (k * golden_gamma)

let bits64 t = Int64.of_int (bits t)

let split t =
  let s = bits t in
  (* Mix once more so the child stream is decorrelated from the parent's
     raw output. *)
  { state = mix s }

let copy t = { state = t.state }

(* One draw of [int]'s rejection sampling (which avoids modulo bias):
   the value, or -1 when the draw falls in the last, partial bucket. *)
let[@inline] int_draw t n =
  let r = bits t lsr 1 in
  let x = r mod n in
  if r - x <= max_int - (n - 1) then x else -1

let int_once t n =
  if n <= 0 then invalid_arg "Rng.int_once: bound must be positive";
  int_draw t n

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* A while loop instead of a local recursive function: the latter costs
     a closure allocation per call without flambda, and this runs once per
     simulated GET. *)
  let v = ref (int_draw t n) in
  while !v < 0 do
    v := int_draw t n
  done;
  !v

let[@inline] unit_float t =
  (* 53 random bits scaled into [0,1). *)
  let r = bits t lsr 10 in
  float_of_int r *. 0x1p-53

let[@inline] exponential t ~mean =
  let u = unit_float t in
  (* 1 - u is in (0, 1], so log is finite. *)
  -.mean *. log1p (-.u)
