module Zipf = struct
  type t = {
    n : int;
    theta : float;
    alpha : float;
    zetan : float;
    eta : float;
    threshold1 : float; (* zeta contribution used for the rank-1 shortcut *)
  }

  (* The generalized harmonic number sum_{i=1..n} 1 / i^theta, summed in
     index order.  Each term is a pure [pow], which is nearly all of the
     cost, so [run] may compute a round of [round_blocks] blocks of terms
     on several domains; the calling domain then adds the round's terms in
     index order, the same additions as one sequential loop, bit for bit.
     The buffer bounds the transient memory at one round (1 MB). *)
  let block = 32_768
  let round_blocks = 4

  let sequential tasks = Array.iter (fun task -> task ()) tasks

  let zeta ?(run = sequential) n theta =
    let buf = Array.create_float (min n (block * round_blocks)) in
    let sum = [| 0.0 |] in
    let first = ref 1 in
    while !first <= n do
      let base = !first in
      let len = min (n - base + 1) (Array.length buf) in
      run
        (Array.init
           ((len + block - 1) / block)
           (fun b () ->
             for j = b * block to min len ((b + 1) * block) - 1 do
               buf.(j) <- 1.0 /. Float.pow (float_of_int (base + j)) theta
             done));
      for j = 0 to len - 1 do
        sum.(0) <- sum.(0) +. buf.(j)
      done;
      first := base + len
    done;
    sum.(0)

  let create ?run ~n ~theta () =
    if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
    if theta < 0.0 || theta >= 1.0 then
      invalid_arg "Zipf.create: theta must be in [0, 1)";
    let zetan = zeta ?run n theta in
    let zeta2 = zeta (min n 2) theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { n; theta; alpha; zetan; eta; threshold1 = 1.0 +. Float.pow 0.5 theta }

  let zetan t = t.zetan
  let eta t = t.eta

  let sample t rng =
    if t.n = 1 then 0
    else begin
      let u = Rng.unit_float rng in
      let uz = u *. t.zetan in
      if uz < 1.0 then 0
      else if uz < t.threshold1 then 1
      else begin
        let rank =
          int_of_float
            (float_of_int t.n *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha)
        in
        (* Floating-point rounding can push the rank to n; clamp. *)
        if rank >= t.n then t.n - 1 else if rank < 0 then 0 else rank
      end
    end

  let prob t k =
    if k < 0 || k >= t.n then invalid_arg "Zipf.prob: rank out of range";
    1.0 /. (Float.pow (float_of_int (k + 1)) t.theta *. t.zetan)
end

module Alias = struct
  type t = { prob : float array; alias : int array }

  let create weights =
    let k = Array.length weights in
    if k = 0 then invalid_arg "Alias.create: empty weights";
    Array.iter
      (fun w -> if w < 0.0 then invalid_arg "Alias.create: negative weight")
      weights;
    let total = Array.fold_left ( +. ) 0.0 weights in
    if not (total > 0.0) then invalid_arg "Alias.create: total weight must be > 0";
    let scaled = Array.map (fun w -> w *. float_of_int k /. total) weights in
    let prob = Array.make k 0.0 in
    let alias = Array.make k 0 in
    let small = Queue.create () and large = Queue.create () in
    Array.iteri
      (fun i p -> if p < 1.0 then Queue.add i small else Queue.add i large)
      scaled;
    while (not (Queue.is_empty small)) && not (Queue.is_empty large) do
      let s = Queue.pop small and l = Queue.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
      if scaled.(l) < 1.0 then Queue.add l small else Queue.add l large
    done;
    Queue.iter (fun i -> prob.(i) <- 1.0) small;
    Queue.iter (fun i -> prob.(i) <- 1.0) large;
    { prob; alias }

  let sample t rng =
    let k = Array.length t.prob in
    let i = Rng.int rng k in
    if Rng.unit_float rng < t.prob.(i) then i else t.alias.(i)
end

let uniform_int_in rng ~lo ~hi =
  if hi < lo then invalid_arg "Dist.uniform_int_in: empty range";
  lo + Rng.int rng (hi - lo + 1)
