(** Workload specifications (§5.3 of the paper).

    A workload is characterized by the item-size variability profile
    (percentage [p_l] of requests that target large items and maximum large
    item size [s_l]), the GET:PUT mix, the key-popularity skew, and the
    dataset shape. *)

type t = {
  p_large : float;       (** percentage (0..100) of requests for large items *)
  s_large_max : int;     (** maximum size of a large item, bytes *)
  get_ratio : float;     (** fraction of GETs, e.g. 0.95 *)
  zipf_theta : float;    (** skew of the tiny+small popularity distribution *)
  n_keys : int;          (** total keys in the dataset *)
  n_large_keys : int;    (** of which large *)
  tiny_fraction : float; (** fraction of the non-large keys that are tiny *)
  key_size : int;        (** constant key size, bytes *)
}

val default : t
(** The paper's default: skewed (zipf 0.99), 95:5 GET:PUT,
    [p_large = 0.125 %], [s_large_max = 500 KB], 40 % tiny / 60 % small.
    The dataset is scaled to 1 M keys (vs the paper's 16 M) with the large
    key count scaled in proportion (625), preserving per-key access
    probabilities; see DESIGN.md. *)

val paper_scale : t
(** The paper's full 16 M-key dataset with 10 K large keys. *)

val write_intensive : t
(** 50:50 GET:PUT (§6.2). *)

val with_p_large : t -> float -> t

val with_s_large : t -> int -> t

val tiny_min : int
val tiny_max : int
(** Tiny items: 1–13 bytes. *)

val small_min : int
val small_max : int
(** Small items: 14–1400 bytes. *)

val large_min : int
(** Large items: 1500 bytes up to [s_large_max]. *)

val table1_profiles : (float * int) list
(** The (p_l, s_l) combinations of Table 1. *)

val mean_small_item_bytes : t -> float
(** Expected size of a non-large item (mix of tiny and small). *)

val mean_large_item_bytes : t -> float

val percent_data_large : t -> float
(** Percentage of transferred bytes due to large requests — the third
    column of Table 1. *)

val max_keys : int
(** The largest [n_keys] a spec may ask for, 2^30: below it every key id
    has a unique 8-hex-digit name and the dataset's rank-to-id scramble
    stays inside 63-bit integers (it overflows from about 1.7e9 keys). *)

val validate : t -> (unit, string) result
(** Check internal consistency (fractions in range, sizes ordered,
    [n_large_keys < n_keys <= max_keys], ...). *)

val pp : Format.formatter -> t -> unit
