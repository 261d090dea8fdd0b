type t = {
  min_value : float;
  max_value : float;
  inv_log_gamma : float;
  gamma : float;
  counts : float array;
  sum : float array;
      (* one cell, the total: a mutable float field of this record would
         box on every [record] *)
}

let create ?(buckets_per_decade = 32) ~min_value ~max_value () =
  if not (0.0 < min_value && min_value < max_value) then
    invalid_arg "Log_histogram.create: need 0 < min_value < max_value";
  if buckets_per_decade < 1 then
    invalid_arg "Log_histogram.create: buckets_per_decade must be >= 1";
  let gamma = Float.pow 10.0 (1.0 /. float_of_int buckets_per_decade) in
  let log_gamma = log gamma in
  let n =
    1 + int_of_float (ceil (log (max_value /. min_value) /. log_gamma))
  in
  {
    min_value;
    max_value;
    inv_log_gamma = 1.0 /. log_gamma;
    gamma;
    counts = Array.make (max n 1) 0.0;
    sum = [| 0.0 |];
  }

let same_layout a b =
  a.min_value = b.min_value
  && a.max_value = b.max_value
  && Array.length a.counts = Array.length b.counts

let[@inline] index_of t v =
  if v <= t.min_value then 0
  else begin
    let i = int_of_float (log (v /. t.min_value) *. t.inv_log_gamma) in
    if i < 0 then 0
    else if i >= Array.length t.counts then Array.length t.counts - 1
    else i
  end

let[@inline] record t v =
  let i = index_of t v in
  t.counts.(i) <- t.counts.(i) +. 1.0;
  t.sum.(0) <- t.sum.(0) +. 1.0

let record_int t n = record t (float_of_int n)

let total t = t.sum.(0)

let is_empty t = t.sum.(0) = 0.0

let buckets t = Array.length t.counts

let[@inline] bucket_upper_bound t i =
  if i < 0 || i >= Array.length t.counts then
    invalid_arg "Log_histogram.bucket_upper_bound: index out of range";
  t.min_value *. Float.pow t.gamma (float_of_int (i + 1))

let quantile t q =
  if is_empty t then invalid_arg "Log_histogram.quantile: empty histogram";
  if q <= 0.0 || q > 1.0 then invalid_arg "Log_histogram.quantile: q out of (0, 1]";
  let target = q *. t.sum.(0) in
  let n = Array.length t.counts in
  (* The first bucket at which the running sum reaches [target]; a loop,
     so the running sum stays unboxed. *)
  let i = ref 0 and acc = ref 0.0 and found = ref (-1) in
  while !found < 0 && !i < n - 1 do
    acc := !acc +. t.counts.(!i);
    if !acc >= target then found := !i else incr i
  done;
  bucket_upper_bound t (if !found < 0 then n - 1 else !found)

let merge_into ~dst src =
  if not (same_layout dst src) then
    invalid_arg "Log_histogram.merge_into: layout mismatch";
  for i = 0 to Array.length src.counts - 1 do
    dst.counts.(i) <- dst.counts.(i) +. src.counts.(i)
  done;
  dst.sum.(0) <- dst.sum.(0) +. src.sum.(0)

let weighted_sums t ~weights ~threshold ~into =
  if Array.length weights <> Array.length t.counts then
    invalid_arg "Log_histogram.weighted_sums: one weight per bucket";
  let below = ref 0.0 and above = ref 0.0 in
  for i = 0 to Array.length t.counts - 1 do
    let c = t.counts.(i) in
    if c > 0.0 then begin
      let w = c *. weights.(i) in
      if bucket_upper_bound t i <= threshold then below := !below +. w
      else above := !above +. w
    end
  done;
  into.(0) <- !below;
  into.(1) <- !above

let cut_points t ~weights ~threshold ~into =
  if Array.length weights <> Array.length t.counts then
    invalid_arg "Log_histogram.cut_points: one weight per bucket";
  let n = Array.length t.counts in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let c = t.counts.(i) in
    if c > 0.0 && bucket_upper_bound t i > threshold then total := !total +. (c *. weights.(i))
  done;
  if !total <= 0.0 then -1
  else begin
    let per_part = !total /. float_of_int (Array.length into + 1) in
    let acc = ref 0.0 and k = ref 0 in
    for i = 0 to n - 1 do
      let c = t.counts.(i) in
      if c > 0.0 && bucket_upper_bound t i > threshold then begin
        acc := !acc +. (c *. weights.(i));
        if !acc >= float_of_int (!k + 1) *. per_part && !k < Array.length into then begin
          into.(!k) <- i;
          incr k
        end
      end
    done;
    !k
  end

let copy t = { t with counts = Array.copy t.counts; sum = Array.copy t.sum }

let smooth_into ~prev ~current ~alpha =
  if not (same_layout prev current) then
    invalid_arg "Log_histogram.smooth: layout mismatch";
  if alpha < 0.0 || alpha > 1.0 then
    invalid_arg "Log_histogram.smooth: alpha out of [0, 1]";
  let total = ref 0.0 in
  for i = 0 to Array.length prev.counts - 1 do
    let v = ((1.0 -. alpha) *. prev.counts.(i)) +. (alpha *. current.counts.(i)) in
    prev.counts.(i) <- v;
    total := !total +. v
  done;
  prev.sum.(0) <- !total

let smooth ~prev ~current ~alpha =
  let out = copy prev in
  smooth_into ~prev:out ~current ~alpha;
  out

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0.0;
  t.sum.(0) <- 0.0

let fold f t init =
  let acc = ref init in
  for i = 0 to Array.length t.counts - 1 do
    if t.counts.(i) > 0.0 then acc := f i t.counts.(i) !acc
  done;
  !acc
