(* The nearest-rank oracle the in-place selection ([Stats.Quantile.of_array]
   and [of_vec]) is checked against, independent of it: the element at index
   [ceil(q * n) - 1] (clamped) of the samples sorted in ascending order. *)
let of_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantile_oracle.of_sorted: empty sample";
  if not (q > 0.0 && q <= 1.0) then invalid_arg "Quantile_oracle.of_sorted: q out of (0, 1]";
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
