type t = {
  spec : Spec.t;
  n : int;
  small_sizes : Bytes.t;
      (* 16-bit little-endian entry per small key.  Small sizes are
         bounded by [Spec.small_max] (1400), so 2 bytes suffice: the
         packed table is 4x smaller than an [int array], and the random
         zipf-driven [size_of_key] on the GET path mostly hits cache
         instead of DRAM. *)
  large_sizes : int array; (* one entry per large key; up to s_large_max *)
  zipf : Dsim.Dist.Zipf.t;
  n_small : int;
  perm_key : int; (* parameter of the rank -> key-id scrambling *)
}

(* Multiplicative scrambling of zipf ranks onto key ids: an affine map with
   a multiplier coprime to n distributes the popular ranks across the whole
   id space while remaining a bijection. *)
let scramble ~n ~mult rank = (rank * mult + 0x9E37) mod n

let rec coprime_mult n candidate =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  if gcd candidate n = 1 then candidate else coprime_mult n (candidate + 2)

(* Hand-rolled ["k%08x"]: producing the same strings as [Printf.sprintf]
   without interpreting a format per key keeps real-store key
   materialization cheap. *)
let hex_digits = "0123456789abcdef"

let key_name id =
  let b = Bytes.create 9 in
  Bytes.unsafe_set b 0 'k';
  let v = ref id in
  for i = 8 downto 1 do
    Bytes.unsafe_set b i (String.unsafe_get hex_digits (!v land 0xF));
    v := !v lsr 4
  done;
  Bytes.unsafe_to_string b

(* The size draw makes two draws per small key (class, then size) and
   one per large key, except where [Rng.int] rejects a draw and draws
   again (probability below 1e-15 per draw).  So the generator that
   draws key [id] can be placed by {!Dsim.Rng.advance} instead of by
   drawing every earlier key, which lets chunks of keys draw in parallel. *)
let draws_before ~n_small id = if id < n_small then 2 * id else n_small + id

(* Draw the sizes of keys [lo, hi) with [rng] standing at key [lo]'s first
   draw, and return the first key not drawn: [hi], or, without [retry],
   the first key whose size draw [Rng.int] would reject (with [retry],
   draw again exactly as [Rng.int] does).  The class draw compares the
   53 bits [Rng.unit_float] would scale with [tiny_below], the exact
   integer image of [tiny_fraction], so nothing is boxed. *)
let draw_sizes ~retry ~n_small ~tiny_below ~s_large_max small large rng ~lo ~hi =
  let stop = ref hi and id = ref lo in
  while !id < !stop do
    let i = !id in
    let is_small = i < n_small in
    let tiny = is_small && Dsim.Rng.bits rng lsr 10 < tiny_below in
    let least =
      if not is_small then Spec.large_min else if tiny then Spec.tiny_min else Spec.small_min
    in
    let span =
      1 - least
      + if not is_small then s_large_max else if tiny then Spec.tiny_max else Spec.small_max
    in
    let x = ref (Dsim.Rng.int_once rng span) in
    while retry && !x < 0 do
      x := Dsim.Rng.int_once rng span
    done;
    if !x < 0 then stop := i
    else begin
      if is_small then Bytes.set_uint16_le small (2 * i) (least + !x)
      else large.(i - n_small) <- least + !x;
      id := i + 1
    end
  done;
  !stop

let chunk_keys = 65_536

let create ?(seed = 7) ?(run = Array.iter (fun task -> task ())) spec =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Dataset.create: " ^ msg));
  let n = spec.Spec.n_keys in
  let n_small = n - spec.Spec.n_large_keys in
  assert (Spec.small_max < 0x10000);
  let small_sizes = Bytes.create (2 * n_small) in
  let large_sizes = Array.make (n - n_small) 0 in
  (* u < f for u = r * 2^-53 and an integer r < 2^53 iff r < ceil (f * 2^53);
     both products are exact. *)
  let tiny_below = int_of_float (Float.ceil (spec.Spec.tiny_fraction *. 0x1p53)) in
  let seeded = Dsim.Rng.create seed in
  let draw ~retry lo hi =
    let rng = Dsim.Rng.copy seeded in
    Dsim.Rng.advance rng (draws_before ~n_small lo);
    draw_sizes ~retry ~n_small ~tiny_below ~s_large_max:spec.Spec.s_large_max small_sizes
      large_sizes rng ~lo ~hi
  in
  let chunks = (n + chunk_keys - 1) / chunk_keys in
  let chunk_end c = min n ((c + 1) * chunk_keys) in
  let stopped = Array.make chunks 0 in
  run
    (Array.init chunks (fun c () ->
         stopped.(c) <- draw ~retry:false (c * chunk_keys) (chunk_end c)));
  (* A rejected draw shifts every later key's draws by one, so the keys
     from the first one a chunk could not draw are drawn again in order. *)
  let c = ref 0 in
  while !c < chunks && stopped.(!c) = chunk_end !c do
    incr c
  done;
  if !c < chunks then ignore (draw ~retry:true stopped.(!c) n);
  {
    spec;
    n;
    small_sizes;
    large_sizes;
    zipf = Dsim.Dist.Zipf.create ~run ~n:n_small ~theta:spec.Spec.zipf_theta ();
    n_small;
    perm_key = coprime_mult n_small 2_654_435_761;
  }

let spec t = t.spec

let zipf t = t.zipf

let n_keys t = t.n

let n_small_keys t = t.n_small

let[@inline] size_of_key t id =
  if id < t.n_small then Bytes.get_uint16_le t.small_sizes (2 * id)
  else t.large_sizes.(id - t.n_small)

let[@inline] is_large_key t id = id >= t.n_small

let key_partition _ id = Kvstore.Keyhash.hex_name_partition ~prefix:'k' id ~bits:30

let sample_small_key t rng =
  let rank = Dsim.Dist.Zipf.sample t.zipf rng in
  scramble ~n:t.n_small ~mult:t.perm_key rank

let sample_large_key t rng =
  t.n_small + Dsim.Rng.int rng (Array.length t.large_sizes)

let sample_get_key t rng =
  if Dsim.Rng.unit_float rng < t.spec.Spec.p_large /. 100.0 then sample_large_key t rng
  else sample_small_key t rng

let total_value_bytes t =
  let acc = ref 0 in
  for id = 0 to t.n - 1 do
    acc := !acc + size_of_key t id
  done;
  !acc
