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

let create ?(seed = 7) spec =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Dataset.create: " ^ msg));
  let rng = Dsim.Rng.create seed in
  let n = spec.Spec.n_keys in
  let n_large = spec.Spec.n_large_keys in
  let n_small = n - n_large in
  assert (Spec.small_max < 0x10000);
  let small_sizes = Bytes.create (2 * n_small) in
  for i = 0 to n_small - 1 do
    let size =
      if Dsim.Rng.unit_float rng < spec.Spec.tiny_fraction then
        Dsim.Dist.uniform_int_in rng ~lo:Spec.tiny_min ~hi:Spec.tiny_max
      else Dsim.Dist.uniform_int_in rng ~lo:Spec.small_min ~hi:Spec.small_max
    in
    Bytes.set_uint16_le small_sizes (2 * i) size
  done;
  let large_sizes =
    Array.init (n - n_small) (fun _ ->
        Dsim.Dist.uniform_int_in rng ~lo:Spec.large_min ~hi:spec.Spec.s_large_max)
  in
  {
    spec;
    n;
    small_sizes;
    large_sizes;
    zipf = Dsim.Dist.Zipf.create ~n:n_small ~theta:spec.Spec.zipf_theta;
    n_small;
    perm_key = coprime_mult n_small 2_654_435_761;
  }

let spec t = t.spec

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

let sample_put t rng =
  let key = sample_get_key t rng in
  let new_size =
    if is_large_key t key then
      Dsim.Dist.uniform_int_in rng ~lo:Spec.large_min ~hi:t.spec.Spec.s_large_max
    else if size_of_key t key <= Spec.tiny_max then
      Dsim.Dist.uniform_int_in rng ~lo:Spec.tiny_min ~hi:Spec.tiny_max
    else Dsim.Dist.uniform_int_in rng ~lo:Spec.small_min ~hi:Spec.small_max
  in
  (key, new_size)

let total_value_bytes t =
  let acc = ref 0 in
  for id = 0 to t.n - 1 do
    acc := !acc + size_of_key t id
  done;
  !acc

let mean_item_bytes_per_request t =
  let pl = t.spec.Spec.p_large /. 100.0 in
  (pl *. Spec.mean_large_item_bytes t.spec)
  +. ((1.0 -. pl) *. Spec.mean_small_item_bytes t.spec)
