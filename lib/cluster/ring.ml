(* SplitMix64-style finalizer on native ints (constants truncated to 63
   bits, mirroring Dsim.Rng); positions are masked non-negative so the
   binary search below works on a totally ordered int ring. *)
let mix z =
  let z = (z + 0x1E3779B97F4A7C15) * 0x2F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

type t = {
  servers : int;
  points : int array; (* sorted ring positions *)
  owner : int array;  (* owner.(i) = server owning points.(i) *)
}

(* Feed (seed, server, vnode) through the mixer twice so vnode points of
   one server are spread independently.  A server's points depend only on
   (seed, server, vnode): growing or shrinking the membership never moves
   another server's points, which is what makes add/remove migrations
   minimal. *)
let point ~seed s v = mix (mix ((seed * 0x3779) lxor (s * 0x10001) lxor v) + v)

let of_members ?(vnodes = 128) ?(seed = 0) members =
  let m = Array.of_list members in
  let k = Array.length m in
  if k < 1 then invalid_arg "Ring.of_members: need at least one member";
  if vnodes < 1 then invalid_arg "Ring.of_members: vnodes must be >= 1";
  Array.iter
    (fun s ->
      if s < 0 then invalid_arg "Ring.of_members: negative server id")
    m;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if m.(i) = m.(j) then invalid_arg "Ring.of_members: duplicate server id"
    done
  done;
  let n = k * vnodes in
  let pairs = Array.make n (0, 0) in
  for i = 0 to k - 1 do
    let s = m.(i) in
    for v = 0 to vnodes - 1 do
      pairs.((i * vnodes) + v) <- (point ~seed s v, s)
    done
  done;
  Array.sort
    (fun (a, sa) (b, sb) ->
      if a <> b then Int.compare a b else Int.compare sa sb)
    pairs;
  {
    servers = k;
    points = Array.map fst pairs;
    owner = Array.map snd pairs;
  }

let create ?(vnodes = 128) ?(seed = 0) ~servers () =
  if servers < 1 then invalid_arg "Ring.create: servers must be >= 1";
  of_members ~vnodes ~seed (List.init servers Fun.id)

let lookup t h =
  let h = mix h in
  let n = Array.length t.points in
  (* First point >= h, else wrap to point 0. *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.points.(mid) < h then lo := mid + 1 else hi := mid
  done;
  t.owner.(if !lo = n then 0 else !lo)

let remove t s =
  if t.servers <= 1 then invalid_arg "Ring.remove: cannot remove the last server";
  let keep = ref [] in
  for i = Array.length t.points - 1 downto 0 do
    if t.owner.(i) <> s then keep := (t.points.(i), t.owner.(i)) :: !keep
  done;
  let pairs = Array.of_list !keep in
  {
    servers = t.servers - 1;
    points = Array.map fst pairs;
    owner = Array.map snd pairs;
  }
