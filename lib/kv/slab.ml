type region = { off : int; cap : int; mutable len : int; mutable freed : bool }

type t = {
  arena : Bytes.t;
  mutable bump : int;
  free_lists : region list array; (* class number -> free regions of that class *)
  mutable used : int;
  mutable live : int;
}

exception Out_of_memory of int

let min_class = 16

(* Class 0 is [min_class]; above it each doubling [2^k, 2^(k+1)] is cut
   into four steps of [2^(k-2)], so class [1 + 4(k-4) + (q-1)] holds
   [2^k + q 2^(k-2)] bytes for [q] in 1..4 (20, 24, 28, 32, 40, ...).  A
   request above 16 B therefore wastes less than a quarter of its size. *)
let rec log2_floor n acc = if n <= 1 then acc else log2_floor (n lsr 1) (acc + 1)

let class_number len =
  if len < 0 then invalid_arg "Slab.class_of_size: negative size";
  if len <= min_class then 0
  else
    let k = log2_floor ((len - 1) lsr 4) 4 in
    (* 2^k < len <= 2^(k+1), k >= 4 *)
    (4 * (k - 4)) + ((len - (1 lsl k) - 1) lsr (k - 2)) + 1

let class_bytes i =
  if i = 0 then min_class
  else
    let k = 4 + ((i - 1) / 4) in
    (1 lsl k) + ((((i - 1) mod 4) + 1) lsl (k - 2))

let class_of_size len = class_bytes (class_number len)

let create ~capacity =
  if capacity < min_class then invalid_arg "Slab.create: capacity too small";
  {
    arena = Bytes.create capacity;
    bump = 0;
    free_lists = Array.make (class_number capacity + 1) [];
    used = 0;
    live = 0;
  }

(* Four classes up is twice the size: a freed region is reused by any
   request down to half its capacity before the arena grows. *)
let fallback_classes = 4

let rec take t len i j =
  if j > i + fallback_classes || j >= Array.length t.free_lists then begin
    let cls = class_bytes i in
    if t.bump + cls > Bytes.length t.arena then raise (Out_of_memory len);
    let r = { off = t.bump; cap = cls; len; freed = false } in
    t.bump <- t.bump + cls;
    r
  end
  else
    match t.free_lists.(j) with
    | r :: rest ->
        t.free_lists.(j) <- rest;
        r.freed <- false;
        r.len <- len;
        r
    | [] -> take t len i (j + 1)

let alloc t len =
  let i = class_number len in
  if i >= Array.length t.free_lists then raise (Out_of_memory len);
  let r = take t len i i in
  t.used <- t.used + r.cap;
  t.live <- t.live + 1;
  r

let free t r =
  if r.freed then invalid_arg "Slab.free: double free";
  r.freed <- true;
  let i = class_number r.cap in
  t.free_lists.(i) <- r :: t.free_lists.(i);
  t.used <- t.used - r.cap;
  t.live <- t.live - 1

let write t r b =
  let len = Bytes.length b in
  if len > r.cap then invalid_arg "Slab.write: data exceeds region capacity";
  Bytes.blit b 0 t.arena r.off len;
  r.len <- len

let blit_to t r ~len dst pos = Bytes.blit t.arena r.off dst pos len

let used_bytes t = t.used

let arena_bytes t = t.bump

let capacity t = Bytes.length t.arena

let live_regions t = t.live
