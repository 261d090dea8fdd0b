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

(* Index of the nearest-rank [q]-quantile among [n] sorted samples. *)
let rank_index ~fn n q =
  if n = 0 then invalid_arg ("Quantile." ^ fn ^ ": empty sample");
  if q <= 0.0 || q > 1.0 then invalid_arg ("Quantile." ^ fn ^ ": q out of (0, 1]");
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  max 0 (min (n - 1) (rank - 1))

let of_sorted sorted q = sorted.(rank_index ~fn:"of_sorted" (Array.length sorted) q)

(* The [k]-th smallest (0-based) element of the union of sorted [a] and
   [b]: bisect on [i], how many of the [k + 1] smallest come from [a].
   The split is right when neither side's last taken element exceeds the
   other side's first untaken one; the answer is then the larger of the
   two last taken elements.  Equal elements are plain floats, so any
   valid split yields the same value. *)
let kth_of_union a b k =
  let na = Array.length a and nb = Array.length b in
  let rec search lo hi =
    let i = (lo + hi) / 2 in
    let j = k + 1 - i in
    if i > 0 && j < nb && a.(i - 1) > b.(j) then search lo (i - 1)
    else if j > 0 && i < na && b.(j - 1) > a.(i) then search (i + 1) hi
    else if i = 0 then b.(j - 1)
    else if j = 0 then a.(i - 1)
    else Float.max a.(i - 1) b.(j - 1)
  in
  search (max 0 (k + 1 - nb)) (min na (k + 1))

let of_sorted_union a b q =
  kth_of_union a b (rank_index ~fn:"of_sorted_union" (Array.length a + Array.length b) q)

let of_array arr q =
  let copy = Array.copy arr in
  sort_floats copy;
  of_sorted copy q

let of_vec vec q = of_array (Float_vec.to_array vec) q

let many_of_vec vec qs =
  let copy = Float_vec.to_array vec in
  sort_floats copy;
  List.map (of_sorted copy) qs

let mean_of_vec vec =
  let n = Float_vec.length vec in
  if n = 0 then 0.0 else Float_vec.sum vec /. float_of_int n
