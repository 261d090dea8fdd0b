(* Both fields are floats so the record uses OCaml's flat float layout:
   [add] then updates fields without boxing (a mixed int/float record
   boxes every float store, and [add] sits on the simulator's per-request
   path).  The count is kept as a float — exact up to 2^53 samples. *)
type t = { mutable n : float; mutable mean : float }

let create () = { n = 0.0; mean = 0.0 }

let[@inline] add t x =
  t.n <- t.n +. 1.0;
  t.mean <- t.mean +. ((x -. t.mean) /. t.n)

let mean t = if t.n = 0.0 then 0.0 else t.mean
