type t = {
  reqs : Generator.request array;
  ts_us : float array;
      (* per-request arrival timestamps; empty for an untimed trace *)
}

let of_requests reqs = { reqs; ts_us = [||] }

let of_timed reqs ts_us =
  if Array.length reqs <> Array.length ts_us then
    invalid_arg "Trace.of_timed: timestamp count mismatch";
  Array.iteri
    (fun i ts ->
      if not (ts >= 0.0) then invalid_arg "Trace.of_timed: negative timestamp";
      if i > 0 && ts < ts_us.(i - 1) then
        invalid_arg "Trace.of_timed: timestamps not monotone")
    ts_us;
  { reqs; ts_us }

let requests t = t.reqs
let timestamps t = t.ts_us
let length t = Array.length t.reqs
let timed t = Array.length t.ts_us > 0

let capture gen ~n =
  if n < 0 then invalid_arg "Trace.capture: negative count";
  of_requests (Array.init n (fun _ -> Generator.next gen))

(* Header: "MNTR" + ASCII version digit + '\n', then a little-endian
   int64 record count.
   v1 record (14 bytes): op(1) is_large(1) key_id(8) item_size(4).
   v2 record (26 bytes): op(1) is_large(1) key_id(8) item_size(4)
   scan_len(4) ts_us(8, IEEE double bits); a flags byte after the count
   says whether the timestamps are meaningful.
   [save] writes v1 whenever the trace is untimed and scan-free, so files
   produced before the v2 extension stay readable and new scan-free
   captures stay readable by older tools. *)
let magic_prefix = "MNTR"
let v1_record = 14
let v2_record = 26

let max_item_size = 1 lsl 30
(* Any size field above 1 GiB (or negative) is a corrupt record: the
   dataset's largest class tops out in the hundreds of KB. *)

let op_code = function Generator.Get -> 0 | Generator.Put -> 1 | Generator.Scan -> 2

let op_of_code = function
  | 0 -> Some Generator.Get
  | 1 -> Some Generator.Put
  | 2 -> Some Generator.Scan
  | _ -> None

let needs_v2 t =
  timed t
  || Array.exists (fun (r : Generator.request) -> r.Generator.scan_len > 0) t.reqs

let save path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let v2 = needs_v2 t in
      output_string oc magic_prefix;
      output_char oc (if v2 then '2' else '1');
      output_char oc '\n';
      let count = Bytes.create 8 in
      Bytes.set_int64_le count 0 (Int64.of_int (length t));
      output_bytes oc count;
      if v2 then output_char oc (if timed t then '\001' else '\000');
      let rec_size = if v2 then v2_record else v1_record in
      let buf = Bytes.create rec_size in
      Array.iteri
        (fun i (r : Generator.request) ->
          Bytes.set_uint8 buf 0 (op_code r.Generator.op);
          Bytes.set_uint8 buf 1 (if r.Generator.is_large then 1 else 0);
          Bytes.set_int64_le buf 2 (Int64.of_int r.Generator.key_id);
          Bytes.set_int32_le buf 10 (Int32.of_int r.Generator.item_size);
          if v2 then begin
            Bytes.set_int32_le buf 14 (Int32.of_int r.Generator.scan_len);
            Bytes.set_int64_le buf 18
              (Int64.bits_of_float (if timed t then t.ts_us.(i) else 0.0))
          end;
          output_bytes oc buf)
        t.reqs)

let fail fmt = Printf.ksprintf failwith fmt

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (* A file that ends inside the header is truncated, not End_of_file. *)
      let read f = try f () with End_of_file -> fail "Trace.load: truncated header" in
      let header = read (fun () -> really_input_string ic 6) in
      if String.sub header 0 4 <> magic_prefix || header.[5] <> '\n' then
        fail "Trace.load: bad magic";
      let version =
        match header.[4] with
        | '1' -> 1
        | '2' -> 2
        | c ->
            (* Same contract as [Proto.Wire.Bad_version]: an explicit
               decode error, never a silent misparse. *)
            fail "Trace.load: unsupported trace version %c" c
      in
      let count_buf = Bytes.create 8 in
      read (fun () -> really_input ic count_buf 0 8);
      let count64 = Bytes.get_int64_le count_buf 0 in
      if Int64.compare count64 0L < 0 || Int64.compare count64 (Int64.of_int max_int) > 0
      then fail "Trace.load: bad record count";
      let count = Int64.to_int count64 in
      let with_ts =
        if version = 1 then false
        else
          match read (fun () -> input_char ic) with
          | '\000' -> false
          | '\001' -> true
          | _ -> fail "Trace.load: bad flags byte"
      in
      let rec_size = if version = 1 then v1_record else v2_record in
      (* Explicit length checks up front: a short file is "truncated" and a
         long one has "trailing garbage" — never a silently shorter
         trace. *)
      let remaining = in_channel_length ic - pos_in ic in
      (* Compare by division: [count * rec_size] overflows for a corrupt
         count near [max_int]. *)
      if count > remaining / rec_size then
        fail "Trace.load: truncated (%d records declared, file too short)" count;
      if remaining > count * rec_size then
        fail "Trace.load: %d trailing bytes after the last record"
          (remaining - (count * rec_size));
      let buf = Bytes.create rec_size in
      let ts_us = if with_ts then Array.make count 0.0 else [||] in
      let reqs =
        Array.init count (fun i ->
            really_input ic buf 0 rec_size;
            let op =
              match op_of_code (Bytes.get_uint8 buf 0) with
              | Some op -> op
              | None -> fail "Trace.load: bad opcode"
            in
            let item_size32 = Bytes.get_int32_le buf 10 in
            let item_size = Int32.to_int item_size32 in
            if item_size < 0 || item_size > max_item_size then
              fail "Trace.load: item size field overflow (%ld)" item_size32;
            let scan_len =
              if version = 1 then 0
              else begin
                let sl = Int32.to_int (Bytes.get_int32_le buf 14) in
                if sl < 0 || sl > max_item_size then
                  fail "Trace.load: scan length field overflow";
                sl
              end
            in
            (* A key id indexes the dataset's arrays: one that is
               negative, or wraps negative in [Int64.to_int], would fail
               mid-replay as a bare out-of-bounds access. *)
            let key64 = Bytes.get_int64_le buf 2 in
            if Int64.compare key64 0L < 0 || Int64.compare key64 (Int64.of_int max_int) > 0
            then fail "Trace.load: negative key id %Ld in record %d" key64 i;
            if with_ts then begin
              let ts = Int64.float_of_bits (Bytes.get_int64_le buf 18) in
              if Float.is_nan ts || ts < 0.0 || (i > 0 && ts < ts_us.(i - 1)) then
                fail "Trace.load: bad timestamp in record %d" i;
              ts_us.(i) <- ts
            end;
            {
              Generator.op;
              is_large = Bytes.get_uint8 buf 1 = 1;
              key_id = Int64.to_int key64;
              item_size;
              scan_len;
            })
      in
      if with_ts then of_timed reqs ts_us else of_requests reqs)

let size_percentile t q =
  if length t = 0 then invalid_arg "Trace.size_percentile: empty trace";
  let sizes =
    Array.map (fun (r : Generator.request) -> float_of_int r.Generator.item_size) t.reqs
  in
  Stats.Quantile.of_array sizes q

let percent_large t =
  if length t = 0 then invalid_arg "Trace.percent_large: empty trace";
  let larges =
    Array.fold_left
      (fun acc (r : Generator.request) ->
        if r.Generator.item_size >= Spec.large_min then acc + 1 else acc)
      0 t.reqs
  in
  100.0 *. float_of_int larges /. float_of_int (length t)

let mean_item_size t =
  if length t = 0 then invalid_arg "Trace.mean_item_size: empty trace";
  Array.fold_left
    (fun acc (r : Generator.request) -> acc +. float_of_int r.Generator.item_size)
    0.0 t.reqs
  /. float_of_int (length t)
