type t = {
  p_large : float;
  s_large_max : int;
  get_ratio : float;
  zipf_theta : float;
  n_keys : int;
  n_large_keys : int;
  tiny_fraction : float;
  key_size : int;
}

let tiny_min = 1
let tiny_max = 13
let small_min = 14
let small_max = 1400
let large_min = 1500

let default =
  {
    p_large = 0.125;
    s_large_max = 500_000;
    get_ratio = 0.95;
    zipf_theta = 0.99;
    n_keys = 1_000_000;
    n_large_keys = 625;
    tiny_fraction = 0.4;
    key_size = 8;
  }

let paper_scale = { default with n_keys = 16_000_000; n_large_keys = 10_000 }

let write_intensive = { default with get_ratio = 0.5 }

let with_p_large t p = { t with p_large = p }

let with_s_large t s = { t with s_large_max = s }

let table1_profiles =
  [
    (0.125, 250_000);
    (0.125, 500_000);
    (0.125, 1_000_000);
    (0.0625, 500_000);
    (0.25, 500_000);
    (0.5, 500_000);
    (0.75, 500_000);
  ]

let mean_uniform lo hi = float_of_int (lo + hi) /. 2.0

let mean_small_item_bytes t =
  (t.tiny_fraction *. mean_uniform tiny_min tiny_max)
  +. ((1.0 -. t.tiny_fraction) *. mean_uniform small_min small_max)

let mean_large_item_bytes t = mean_uniform large_min t.s_large_max

let percent_data_large t =
  let pl = t.p_large /. 100.0 in
  let large = pl *. mean_large_item_bytes t in
  let small = (1.0 -. pl) *. mean_small_item_bytes t in
  100.0 *. large /. (large +. small)

(* Key ids are printed as 8 hex digits ([Dataset.key_name]), and the
   dataset scrambles a zipf rank onto a key id with [rank * mult] for a
   multiplier just above 2,654,435,761, which leaves 63 bits from about
   1.7e9 keys.  2^30 keeps both exact with room to spare. *)
let max_keys = 1 lsl 30

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* Every float range is written so that NaN fails it. *)
  if not (0.0 <= t.p_large && t.p_large <= 100.0) then err "p_large out of [0, 100]"
  else if t.s_large_max < large_min then
    err "s_large_max %d below the large-class minimum %d" t.s_large_max large_min
  else if not (0.0 <= t.get_ratio && t.get_ratio <= 1.0) then err "get_ratio out of [0, 1]"
  else if not (0.0 <= t.zipf_theta && t.zipf_theta < 1.0) then
    err "zipf_theta out of [0, 1)"
  else if t.n_keys > max_keys then err "n_keys %d above the maximum %d" t.n_keys max_keys
  else if t.n_large_keys < 0 || t.n_large_keys >= t.n_keys then
    err "need 0 <= n_large_keys < n_keys"
  else if not (0.0 <= t.tiny_fraction && t.tiny_fraction <= 1.0) then
    err "tiny_fraction out of [0, 1]"
  else if t.key_size < 1 then err "key_size must be positive"
  else Ok ()

let pp fmt t =
  Format.fprintf fmt
    "{ p_large=%.4f%%; s_large=%dB; get_ratio=%.2f; zipf=%.2f; keys=%d (%d large) }"
    t.p_large t.s_large_max t.get_ratio t.zipf_theta t.n_keys t.n_large_keys
