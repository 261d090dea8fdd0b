(* Inlined within this unit: an [int64] crossing a call boundary is
   boxed, so [fields] and [hex_name_partition] hash and split a key
   without allocating. *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let[@inline] avalanche z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L) in
  Int64.(logxor z (shift_right_logical z 33))

let[@inline] fnv_byte h c = Int64.mul (Int64.logxor h (Int64.of_int c)) fnv_prime

let[@inline] hash key =
  let h = ref fnv_offset in
  for i = 0 to String.length key - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get key i))
  done;
  avalanche !h

let[@inline] mask_of_bits bits =
  if bits < 0 || bits > 30 then invalid_arg "Keyhash: bits out of [0, 30]";
  (1 lsl bits) - 1

let[@inline] partition_of h ~bits =
  let m = mask_of_bits bits in
  Int64.to_int (Int64.shift_right_logical h (64 - bits)) land m

let[@inline] bucket_of h ~bits =
  let m = mask_of_bits bits in
  (* Skip the low 16 tag bits. *)
  Int64.to_int (Int64.shift_right_logical h 16) land m

let[@inline] tag_of h =
  let t = Int64.to_int h land 0xFFFF in
  if t = 0 then 1 else t

let fields key ~partition_bits ~bucket_bits =
  let h = hash key in
  (partition_of h ~bits:partition_bits lsl (bucket_bits + 16))
  lor (bucket_of h ~bits:bucket_bits lsl 16)
  lor tag_of h

let hex_name_partition ~prefix id ~bits =
  let h = ref (fnv_byte fnv_offset (Char.code prefix)) in
  for shift = 7 downto 0 do
    let d = (id lsr (4 * shift)) land 0xF in
    h := fnv_byte !h (if d < 10 then Char.code '0' + d else Char.code 'a' + d - 10)
  done;
  partition_of (avalanche !h) ~bits
