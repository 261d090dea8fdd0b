type t = {
  min_value : float;
  max_value : float;
  inv_log_gamma : float;
  gamma : float;
  counts : float array;
  mutable total : float;
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
    total = 0.0;
  }

let same_layout a b =
  a.min_value = b.min_value
  && a.max_value = b.max_value
  && Array.length a.counts = Array.length b.counts

let index_of t v =
  if v <= t.min_value then 0
  else begin
    let i = int_of_float (log (v /. t.min_value) *. t.inv_log_gamma) in
    if i < 0 then 0
    else if i >= Array.length t.counts then Array.length t.counts - 1
    else i
  end

let record t v =
  let i = index_of t v in
  t.counts.(i) <- t.counts.(i) +. 1.0;
  t.total <- t.total +. 1.0

let total t = t.total

let is_empty t = t.total = 0.0

let bucket_upper_bound t i =
  if i < 0 || i >= Array.length t.counts then
    invalid_arg "Log_histogram.bucket_upper_bound: index out of range";
  t.min_value *. Float.pow t.gamma (float_of_int (i + 1))

let quantile t q =
  if is_empty t then invalid_arg "Log_histogram.quantile: empty histogram";
  if q <= 0.0 || q > 1.0 then invalid_arg "Log_histogram.quantile: q out of (0, 1]";
  let target = q *. t.total in
  let n = Array.length t.counts in
  let rec go i acc =
    if i >= n - 1 then bucket_upper_bound t (n - 1)
    else begin
      let acc = acc +. t.counts.(i) in
      if acc >= target then bucket_upper_bound t i else go (i + 1) acc
    end
  in
  go 0 0.0

let merge_into ~dst src =
  if not (same_layout dst src) then
    invalid_arg "Log_histogram.merge_into: layout mismatch";
  for i = 0 to Array.length src.counts - 1 do
    dst.counts.(i) <- dst.counts.(i) +. src.counts.(i)
  done;
  dst.total <- dst.total +. src.total

let smooth ~prev ~current ~alpha =
  if not (same_layout prev current) then
    invalid_arg "Log_histogram.smooth: layout mismatch";
  if alpha < 0.0 || alpha > 1.0 then
    invalid_arg "Log_histogram.smooth: alpha out of [0, 1]";
  let out = { prev with counts = Array.copy prev.counts; total = 0.0 } in
  let total = ref 0.0 in
  for i = 0 to Array.length out.counts - 1 do
    let v = ((1.0 -. alpha) *. prev.counts.(i)) +. (alpha *. current.counts.(i)) in
    out.counts.(i) <- v;
    total := !total +. v
  done;
  out.total <- !total;
  out

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0.0;
  t.total <- 0.0

let fold f t init =
  let acc = ref init in
  for i = 0 to Array.length t.counts - 1 do
    if t.counts.(i) > 0.0 then acc := f i t.counts.(i) !acc
  done;
  !acc
