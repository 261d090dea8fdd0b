type region = { off : int; cap : int; mutable len : int }

type t = {
  arena : Bytes.t;
  mutable bump : int;
  free_lists : (int, region list ref) Hashtbl.t; (* class size -> free regions *)
  freed : (int, unit) Hashtbl.t; (* offsets currently free, to catch double free *)
  mutable used : int;
  mutable live : int;
}

exception Out_of_memory of int

let min_class = 16

let create ~capacity =
  if capacity < min_class then invalid_arg "Slab.create: capacity too small";
  {
    arena = Bytes.create capacity;
    bump = 0;
    free_lists = Hashtbl.create 32;
    freed = Hashtbl.create 64;
    used = 0;
    live = 0;
  }

let class_of_size len =
  if len < 0 then invalid_arg "Slab.class_of_size: negative size";
  let rec go c = if c >= len then c else go (2 * c) in
  go min_class

let free_list t cls =
  match Hashtbl.find_opt t.free_lists cls with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add t.free_lists cls l;
      l

let alloc t len =
  let cls = class_of_size len in
  let list = free_list t cls in
  match !list with
  | r :: rest ->
      list := rest;
      Hashtbl.remove t.freed r.off;
      r.len <- len;
      t.used <- t.used + cls;
      t.live <- t.live + 1;
      r
  | [] ->
      if t.bump + cls > Bytes.length t.arena then raise (Out_of_memory len);
      let r = { off = t.bump; cap = cls; len } in
      t.bump <- t.bump + cls;
      t.used <- t.used + cls;
      t.live <- t.live + 1;
      r

let free t r =
  if Hashtbl.mem t.freed r.off then invalid_arg "Slab.free: double free";
  Hashtbl.add t.freed r.off ();
  let list = free_list t r.cap in
  list := r :: !list;
  t.used <- t.used - r.cap;
  t.live <- t.live - 1

let write t r b =
  let len = Bytes.length b in
  if len > r.cap then invalid_arg "Slab.write: data exceeds region capacity";
  Bytes.blit b 0 t.arena r.off len;
  r.len <- len

let blit_to t r ~len dst pos = Bytes.blit t.arena r.off dst pos len

let used_bytes t = t.used

let capacity t = Bytes.length t.arena

let live_regions t = t.live
