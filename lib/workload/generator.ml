type op = Get | Put | Scan

type request = {
  op : op;
  key_id : int;
  item_size : int;
  is_large : bool;
  scan_len : int;
}

type t = {
  dataset : Dataset.t;
  rng : Dsim.Rng.t;
  mutable p_large : float;
  get_ratio : float;
  scan_ratio : float;
  scan_len : int;
  (* Scratch fields filled by [next_into]: all immediate values, so the
     allocation-free path writes no boxes.  [next] wraps them back into a
     record for callers that want one. *)
  mutable last_op : op;
  mutable last_key_id : int;
  mutable last_item_size : int;
  mutable last_is_large : bool;
  mutable last_scan_len : int;
}

let create ?(seed = 11) ?p_large ?get_ratio ?(scan_ratio = 0.0) ?(scan_len = 16)
    dataset =
  if scan_ratio < 0.0 || scan_ratio >= 1.0 then
    invalid_arg "Generator.create: scan_ratio out of [0, 1)";
  if scan_len < 1 then invalid_arg "Generator.create: scan_len must be >= 1";
  let spec = Dataset.spec dataset in
  {
    dataset;
    rng = Dsim.Rng.create seed;
    p_large = Option.value p_large ~default:spec.Spec.p_large;
    get_ratio = Option.value get_ratio ~default:spec.Spec.get_ratio;
    scan_ratio;
    scan_len;
    last_op = Get;
    last_key_id = 0;
    last_item_size = 0;
    last_is_large = false;
    last_scan_len = 0;
  }

let dataset t = t.dataset

let p_large t = t.p_large

let set_p_large t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Generator.set_p_large: out of [0, 100]";
  t.p_large <- p

(* Total stored bytes of the contiguous id range [i, stop).  Top-level
   recursion with an int accumulator: no closure, no allocation — this can
   run on the engine's per-arrival path. *)
let rec range_bytes d i stop acc =
  if i >= stop then acc else range_bytes d (i + 1) stop (acc + Dataset.size_of_key d i)

let scan_bytes dataset ~start ~len = range_bytes dataset start (start + len) 0

let next_into t =
  (* The scan draw happens only when scans are enabled, so a scan-free
     generator consumes exactly the draws it always did (golden runs are
     byte-identical). *)
  if t.scan_ratio > 0.0 && Dsim.Rng.unit_float t.rng < t.scan_ratio then begin
    (* SCAN: start at a popularity-weighted small key; keys are named so
       lexicographic order equals id order, so a scan covers a contiguous
       id range and its reply size is the sum of the stored sizes. *)
    let n_small = Dataset.n_small_keys t.dataset in
    let len = if t.scan_len > n_small then n_small else t.scan_len in
    let first = Dataset.sample_small_key t.dataset t.rng in
    let start = if first > n_small - len then n_small - len else first in
    let bytes = scan_bytes t.dataset ~start ~len in
    t.last_op <- Scan;
    t.last_key_id <- start;
    t.last_item_size <- bytes;
    t.last_is_large <- bytes >= Spec.large_min;
    t.last_scan_len <- len
  end
  else begin
    let large = Dsim.Rng.unit_float t.rng < t.p_large /. 100.0 in
    let key_id =
      if large then Dataset.sample_large_key t.dataset t.rng
      else Dataset.sample_small_key t.dataset t.rng
    in
    t.last_key_id <- key_id;
    t.last_is_large <- large;
    t.last_scan_len <- 0;
    if Dsim.Rng.unit_float t.rng < t.get_ratio then begin
      t.last_op <- Get;
      t.last_item_size <- Dataset.size_of_key t.dataset key_id
    end
    else begin
      let spec = Dataset.spec t.dataset in
      let new_size =
        if large then
          Dsim.Dist.uniform_int_in t.rng ~lo:Spec.large_min ~hi:spec.Spec.s_large_max
        else if Dataset.size_of_key t.dataset key_id <= Spec.tiny_max then
          Dsim.Dist.uniform_int_in t.rng ~lo:Spec.tiny_min ~hi:Spec.tiny_max
        else Dsim.Dist.uniform_int_in t.rng ~lo:Spec.small_min ~hi:Spec.small_max
      in
      t.last_op <- Put;
      t.last_item_size <- new_size
    end
  end

let last_op t = t.last_op
let last_key_id t = t.last_key_id
let last_item_size t = t.last_item_size
let last_is_large t = t.last_is_large
let last_scan_len t = t.last_scan_len

let next t =
  next_into t;
  {
    op = t.last_op;
    key_id = t.last_key_id;
    item_size = t.last_item_size;
    is_large = t.last_is_large;
    scan_len = t.last_scan_len;
  }
