(* The event queue is the innermost loop of the simulator, so the heap is
   laid out as three parallel arrays — an unboxed [float array] of times, an
   [int array] of sequence numbers and a value array — instead of an array
   of boxed entry records.  [add] and [pop] allocate nothing in steady
   state: sifting moves a hole through the arrays rather than swapping
   entries, and the non-optional accessors ([min_time], [min_seq], [pop])
   never materialize tuples. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  dummy : 'a;
}

(* Unused value slots hold [dummy] so the array stays well-typed without
   [Obj.magic] and — unlike a previously stored value — keeps nothing the
   caller handed us reachable after [pop]/[clear]. *)

let create ~dummy () = { times = [||]; seqs = [||]; vals = [||]; size = 0; dummy }

let length t = t.size

let is_empty t = t.size = 0

let capacity t = Array.length t.vals

let[@cold] grow t =
  let cap = Array.length t.vals in
  let new_cap = if cap = 0 then 16 else 2 * cap in
  let times = Array.make new_cap 0.0 in
  let seqs = Array.make new_cap 0 in
  let vals = Array.make new_cap t.dummy in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.vals <- vals

let add t ~time ~seq value =
  if t.size = Array.length t.vals then grow t;
  let times = t.times and seqs = t.seqs and vals = t.vals in
  (* Sift the hole up from the new leaf until [time, seq] fits. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let placed = ref false in
  while (not !placed) && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      vals.(!i) <- vals.(p);
      i := p
    end
    else placed := true
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- value

(* Sift the root hole down, descending element [(time, seq, value)]. *)
let sift_down_root t time seq value =
  let times = t.times and seqs = t.seqs and vals = t.vals in
  let size = t.size in
  let i = ref 0 in
  let placed = ref false in
  while not !placed do
    let l = (2 * !i) + 1 in
    if l >= size then placed := true
    else begin
      let r = l + 1 in
      let c =
        if
          r < size
          && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      let ct = times.(c) in
      if ct < time || (ct = time && seqs.(c) < seq) then begin
        times.(!i) <- ct;
        seqs.(!i) <- seqs.(c);
        vals.(!i) <- vals.(c);
        i := c
      end
      else placed := true
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- value

let min_time t =
  if t.size = 0 then invalid_arg "Heap.min_time: empty heap";
  t.times.(0)

let min_seq t =
  if t.size = 0 then invalid_arg "Heap.min_seq: empty heap";
  t.seqs.(0)

let min_value t =
  if t.size = 0 then invalid_arg "Heap.min_value: empty heap";
  t.vals.(0)

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty heap";
  let v = t.vals.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let lt = t.times.(n) and ls = t.seqs.(n) and lv = t.vals.(n) in
    t.vals.(n) <- t.dummy (* vacated slot: drop the reference so [lv] is collectable once popped *);
    sift_down_root t lt ls lv
  end
  else t.vals.(0) <- t.dummy;
  v

let clear t =
  (* Retain the backing arrays so a reused heap does not re-grow from 16;
     overwrite the value slots with [dummy] so no stored value stays
     reachable after the clear. *)
  Array.fill t.vals 0 (Array.length t.vals) t.dummy;
  t.size <- 0
