(* Monomorphic in-place sort.  [Array.sort compare] on a [float array]
   reads elements through the generic array primitives (boxing each one)
   and dispatches the polymorphic comparison per pair — on the
   million-sample latency vectors this was the simulator's single largest
   source of minor allocation.  A float-specialized quicksort does direct
   unboxed comparisons and allocates nothing per element.  NaNs are not
   ordered ([compare] ordered them); latency samples are always finite. *)
let sort_floats (a : float array) =
  let swap i j =
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  in
  let rec qsort lo hi =
    if hi - lo < 16 then insertion lo hi
    else begin
      (* Median-of-three pivot, then Hoare partition. *)
      let mid = lo + ((hi - lo) / 2) in
      if a.(mid) < a.(lo) then swap mid lo;
      if a.(hi) < a.(lo) then swap hi lo;
      if a.(hi) < a.(mid) then swap hi mid;
      let pivot = a.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.(!i) < pivot do incr i done;
        while a.(!j) > pivot do decr j done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      qsort lo !j;
      qsort !i hi
    end
  in
  if Array.length a > 1 then qsort 0 (Array.length a - 1)

let empty_sample ~fn = invalid_arg ("Quantile." ^ fn ^ ": empty sample")

let check_q ~fn q =
  if q <= 0.0 || q > 1.0 then invalid_arg ("Quantile." ^ fn ^ ": q out of (0, 1]")

(* Index of the nearest-rank [q]-quantile among [n] sorted samples. *)
let rank_index ~fn n q =
  if n = 0 then empty_sample ~fn;
  check_q ~fn q;
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  max 0 (min (n - 1) (rank - 1))

(* ---------------- Exact selection in place ----------------

   The k-th smallest sample is found where it lies: the samples are
   neither copied nor reordered.  Each sample has an order-preserving
   64-bit key, its IEEE bits with the sign bit set when non-negative and
   every bit inverted when negative, so unsigned key order is float order
   (-0.0 sorts just below +0.0; both are zero, so no rank's value
   depends on it).  A count pass histograms one [digit_bits]-bit digit of
   the keys that share the prefix found so far, and the digit whose
   bucket holds rank k extends the prefix.  Once the prefix holds at most
   [gather_max] samples, they are gathered into a scratch array of that
   size, sorted and indexed; a prefix of all 64 bits holds only equal
   samples, so it is the answer whatever its count.

   Each pass is O(n), and there are at most 64 / [digit_bits] of them.
   The loops allocate nothing per sample: every float is read straight
   out of a [float array] and its key lives in registers, which is why
   the selection sits in [Stats] next to [Float_vec] (a float passed to a
   function in another compilation unit is boxed). *)

let digit_bits = 8
let radix = 1 lsl digit_bits
let gather_max = 4096

let[@inline] key x =
  let b = Int64.bits_of_float x in
  Int64.logxor b (Int64.logor (Int64.shift_right b 63) Int64.min_int)

(* Key bits [shift, 64) as an int: exact for [shift >= 1]. *)
let[@inline] key_bits x shift = Int64.to_int (Int64.shift_right_logical (key x) shift)

(* The float whose key is [prefix] (key bits [8, 64)) then [digit]. *)
let float_of_key ~prefix ~digit =
  let k = Int64.logor (Int64.shift_left (Int64.of_int prefix) digit_bits) (Int64.of_int digit) in
  Int64.float_of_bits (if k < 0L then Int64.logxor k Int64.min_int else Int64.lognot k)

(* The samples are read as one sequence: samples [0, lens.(s)) of each
   segment [segs.(s)] in turn, so the union of several vectors is
   selected without concatenating them.  A sample's position in that
   sequence is the index of its class bit. *)

(* Class membership: [want] is -1 for every sample, else the value that
   bit [at] of [marks] must have (bits past the end of [marks] read 0). *)
let[@inline] member marks want at =
  want < 0
  ||
  let byte = at lsr 3 in
  let bit =
    if byte < Bytes.length marks then
      (Char.code (Bytes.unsafe_get marks byte) lsr (at land 7)) land 1
    else 0
  in
  bit = want

(* Sample [i] of [data], at [at] in the sequence, is a candidate when it
   is a member and its key bits [pshift, 64) equal [prefix] ([pshift =
   64]: no prefix yet). *)
let[@inline] candidate (data : float array) marks want ~prefix ~pshift ~at i =
  member marks want at
  && (pshift = 64 || key_bits (Array.unsafe_get data i) pshift = prefix)

let nan_sample ~fn = invalid_arg ("Quantile." ^ fn ^ ": NaN sample")

(* Histogram the candidates by their digit at [pshift - digit_bits]. *)
let count_pass ~fn (segs : float array array) lens marks want hist ~prefix ~pshift =
  Array.fill hist 0 radix 0;
  let shift = pshift - digit_bits and base = ref 0 in
  for s = 0 to Array.length segs - 1 do
    let data = segs.(s) and b = !base in
    for i = 0 to lens.(s) - 1 do
      if candidate data marks want ~prefix ~pshift ~at:(b + i) i then begin
        let x = Array.unsafe_get data i in
        if x <> x then nan_sample ~fn;
        let d = key_bits x shift land (radix - 1) in
        Array.unsafe_set hist d (Array.unsafe_get hist d + 1)
      end
    done;
    base := b + lens.(s)
  done

(* Copy the candidates into [scratch], which has room for them all. *)
let gather (segs : float array array) lens marks want ~prefix ~pshift scratch =
  let m = ref 0 and base = ref 0 in
  for s = 0 to Array.length segs - 1 do
    let data = segs.(s) and b = !base in
    for i = 0 to lens.(s) - 1 do
      if candidate data marks want ~prefix ~pshift ~at:(b + i) i then begin
        Array.unsafe_set scratch !m (Array.unsafe_get data i);
        incr m
      end
    done;
    base := b + lens.(s)
  done

(* The nearest-rank [q]-quantile of the members of the sequence; NaN when
   there is none.  [q] is checked even then. *)
let select ~fn segs lens marks want q =
  check_q ~fn q;
  let hist = Array.make radix 0 in
  count_pass ~fn segs lens marks want hist ~prefix:0 ~pshift:64;
  let n = Array.fold_left ( + ) 0 hist in
  if n = 0 then Float.nan
  else begin
    let k = rank_index ~fn n q in
    (* [hist] holds the pass over the candidates of [prefix]/[pshift], and
       [below] members have a smaller key than any of them. *)
    let rec descend ~prefix ~pshift ~below =
      let d = ref 0 and below = ref below in
      while !below + hist.(!d) <= k do
        below := !below + hist.(!d);
        incr d
      done;
      let count = hist.(!d) and shift = pshift - digit_bits in
      if shift = 0 then float_of_key ~prefix ~digit:!d
      else begin
        let prefix = (prefix lsl digit_bits) lor !d in
        if count <= gather_max then begin
          let scratch = Array.create_float count in
          gather segs lens marks want ~prefix ~pshift:shift scratch;
          sort_floats scratch;
          scratch.(k - !below)
        end
        else begin
          count_pass ~fn segs lens marks want hist ~prefix ~pshift:shift;
          descend ~prefix ~pshift:shift ~below:!below
        end
      end
    in
    descend ~prefix:0 ~pshift:64 ~below:0
  end

let of_array arr q =
  if Array.length arr = 0 then empty_sample ~fn:"of_array";
  select ~fn:"of_array" [| arr |] [| Array.length arr |] Bytes.empty (-1) q

let of_vec vec q =
  if Float_vec.length vec = 0 then empty_sample ~fn:"of_vec";
  select ~fn:"of_vec" [| Float_vec.unsafe_data vec |] [| Float_vec.length vec |] Bytes.empty (-1) q

let of_vec_marked vec ~marks ~marked q =
  select ~fn:"of_vec_marked" [| Float_vec.unsafe_data vec |] [| Float_vec.length vec |] marks
    (if marked then 1 else 0)
    q

let total vecs = Array.fold_left (fun acc v -> acc + Float_vec.length v) 0 vecs

let of_vecs vecs q =
  if total vecs = 0 then empty_sample ~fn:"of_vecs";
  select ~fn:"of_vecs" (Array.map Float_vec.unsafe_data vecs) (Array.map Float_vec.length vecs)
    Bytes.empty (-1) q

let many_of_vec vec qs = List.map (of_vec vec) qs

let many_of_vecs vecs qs = List.map (of_vecs vecs) qs

let mean_of_vec vec =
  let n = Float_vec.length vec in
  if n = 0 then 0.0 else Float_vec.sum vec /. float_of_int n

(* One accumulator through every vector in turn: the additions, and so
   the bits, of [Float_vec.sum] over their concatenation. *)
let mean_of_vecs vecs =
  let acc = [| 0.0 |] in
  Array.iter
    (fun v ->
      let data = Float_vec.unsafe_data v in
      for i = 0 to Float_vec.length v - 1 do
        acc.(0) <- acc.(0) +. Array.unsafe_get data i
      done)
    vecs;
  let n = total vecs in
  if n = 0 then 0.0 else acc.(0) /. float_of_int n
