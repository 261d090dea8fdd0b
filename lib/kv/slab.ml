type t = {
  arena : Bytes.t;
  mutable bump : int;
  heads : int array; (* class number -> offset of its first free region, -1 if none *)
  mutable used : int;
  mutable live : int;
}

exception Out_of_memory of int

let min_class = 16

let header_bytes = 1

(* The class byte at [off] carries [free_mark] while the region is free;
   class numbers stay below it for any arena up to 2^35 bytes. *)
let free_mark = 0x80

let max_capacity = 1 lsl 35

(* A free region's successor on its class's free list, at [off + 8]. *)
let next_at = 8

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

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
  if capacity > max_capacity then invalid_arg "Slab.create: capacity above 2^35 bytes";
  {
    arena = Bytes.create capacity;
    bump = 0;
    heads = Array.make (class_number capacity + 1) (-1);
    used = 0;
    live = 0;
  }

(* Four classes up is twice the size: a freed region is reused by any
   request down to half its capacity before the arena grows. *)
let fallback_classes = 4

let[@cold] out_of_memory len = raise (Out_of_memory len)

let rec take t len i j =
  if j > i + fallback_classes || j >= Array.length t.heads then begin
    let cls = class_bytes i in
    if t.bump + cls > Bytes.length t.arena then out_of_memory len;
    let off = t.bump in
    t.bump <- off + cls;
    Bytes.set_uint8 t.arena off i;
    off
  end
  else
    let off = t.heads.(j) in
    if off < 0 then take t len i (j + 1)
    else begin
      t.heads.(j) <- Int64.to_int (get64 t.arena (off + next_at));
      Bytes.set_uint8 t.arena off j;
      off
    end

let alloc t len =
  let i = class_number len in
  if i >= Array.length t.heads then out_of_memory len;
  let off = take t len i i in
  t.used <- t.used + class_bytes (Bytes.get_uint8 t.arena off);
  t.live <- t.live + 1;
  off

let free t off =
  if off < 0 || off >= t.bump then invalid_arg "Slab.free: not a region";
  let c = Bytes.get_uint8 t.arena off in
  if c land free_mark <> 0 then invalid_arg "Slab.free: double free";
  Bytes.set_uint8 t.arena off (c lor free_mark);
  set64 t.arena (off + next_at) (Int64.of_int t.heads.(c));
  t.heads.(c) <- off;
  t.used <- t.used - class_bytes c;
  t.live <- t.live - 1

let region_bytes t off = class_bytes (Bytes.get_uint8 t.arena off land (free_mark - 1))

let write t off ~pos b =
  let len = Bytes.length b in
  if pos < header_bytes || pos + len > region_bytes t off then
    invalid_arg "Slab.write: data exceeds region capacity";
  Bytes.blit b 0 t.arena (off + pos) len

let arena t = t.arena

let used_bytes t = t.used

let arena_bytes t = t.bump

let capacity t = Bytes.length t.arena

let live_regions t = t.live
