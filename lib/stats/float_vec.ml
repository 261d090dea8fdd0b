type t = { mutable arr : float array; mutable len : int }

(* [Array.create_float] leaves the new storage unwritten, so capacity that
   is never pushed to is never touched: on a large vector the untouched
   tail costs address space, not resident memory ([Array.make] would
   zero-fill all of it). *)
let create ?(capacity = 1024) () = { arr = Array.create_float (max capacity 1); len = 0 }

let length t = t.len

(* Double the capacity until [need] fits, keeping the first [len]
   elements. *)
let grow t need =
  let cap = ref (max 1 (Array.length t.arr)) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let arr = Array.create_float !cap in
  Array.blit t.arr 0 arr 0 t.len;
  t.arr <- arr

let[@inline] push t x =
  if t.len = Array.length t.arr then grow t (t.len + 1);
  t.arr.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Float_vec.get: index out of bounds";
  t.arr.(i)

let to_array t = Array.sub t.arr 0 t.len

let unsafe_data t = t.arr

let iter f t =
  for i = 0 to t.len - 1 do
    f t.arr.(i)
  done

let append dst src =
  let need = dst.len + src.len in
  if need > Array.length dst.arr then grow dst need;
  Array.blit src.arr 0 dst.arr dst.len src.len;
  dst.len <- need

let sum t =
  (* Accumulate through a one-element float array: flat float storage, so
     the loop allocates nothing (a [float ref] would box every update,
     and a closure fold would box both arguments per element). *)
  let acc = [| 0.0 |] in
  for i = 0 to t.len - 1 do
    acc.(0) <- acc.(0) +. t.arr.(i)
  done;
  acc.(0)

let clear t = t.len <- 0
