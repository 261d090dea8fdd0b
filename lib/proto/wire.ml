type op = Get | Put | Delete | Scan

type request = {
  id : int64;
  op : op;
  key : string;
  value : bytes option;
  client_ts : int64;
  target_rx : int;
}

type status = Ok | Not_found | Overloaded

type reply = { id : int64; status : status; value : bytes option; client_ts : int64 }

type error = Truncated | Bad_magic | Bad_version of int | Bad_op | Bad_status

let pp_error fmt = function
  | Truncated -> Format.pp_print_string fmt "truncated message"
  | Bad_magic -> Format.pp_print_string fmt "bad magic byte"
  | Bad_version v -> Format.fprintf fmt "unsupported protocol version %d" v
  | Bad_op -> Format.pp_print_string fmt "unknown opcode"
  | Bad_status -> Format.pp_print_string fmt "unknown status"

let request_magic = 0xA5
let reply_magic = 0x5A

(* v2 added the SCAN opcode (3).  Decoders reject any other version, so a
   v1 peer fails fast with [Bad_version 2] instead of misparsing. *)
let version = 2

(* Request layout:
   magic(1) version(1) op(1) id(8) client_ts(8) target_rx(2) key_len(2)
   value_len(4) key value.  value_len = 0xFFFFFFFF encodes "no value". *)
let request_header = 1 + 1 + 1 + 8 + 8 + 2 + 2 + 4

(* Reply layout:
   magic(1) version(1) status(1) id(8) client_ts(8) value_len(4) value. *)
let reply_header = 1 + 1 + 1 + 8 + 8 + 4

let no_value = 0xFFFFFFFF

let op_code = function Get -> 0 | Put -> 1 | Delete -> 2 | Scan -> 3

let op_of_code = function
  | 0 -> Some Get
  | 1 -> Some Put
  | 2 -> Some Delete
  | 3 -> Some Scan
  | _ -> None

let status_code = function Ok -> 0 | Not_found -> 1 | Overloaded -> 2

let status_of_code = function
  | 0 -> Some Ok
  | 1 -> Some Not_found
  | 2 -> Some Overloaded
  | _ -> None

let value_len = function None -> 0 | Some v -> Bytes.length v

let get_request_size ~key_len = request_header + key_len

let put_request_size ~key_len ~value_len = request_header + key_len + value_len

(* A SCAN names its start key and carries the requested entry count as a
   4-byte value payload — the request record itself is unchanged. *)
let scan_request_size ~key_len = request_header + key_len + 4

let decode_scan_count b =
  if Bytes.length b <> 4 then None
  else
    let v = Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF in
    if v > 0xFFFFFF then None else Some v

let get_reply_size ~value_len = reply_header + value_len

let put_reply_size = reply_header

(* [check_version b] assumes the magic at offset 0 already matched. *)
let check_version b =
  let v = Bytes.get_uint8 b 1 in
  if v = version then None else Some (Bad_version v)

let encode_request r =
  if String.length r.key > 0xFFFF then invalid_arg "Wire.encode_request: key too long";
  if r.target_rx < 0 || r.target_rx > 0xFFFF then
    invalid_arg "Wire.encode_request: target_rx out of range";
  let klen = String.length r.key in
  let vlen = value_len r.value in
  let b = Bytes.create (request_header + klen + vlen) in
  Bytes.set_uint8 b 0 request_magic;
  Bytes.set_uint8 b 1 version;
  Bytes.set_uint8 b 2 (op_code r.op);
  Bytes.set_int64_le b 3 r.id;
  Bytes.set_int64_le b 11 r.client_ts;
  Bytes.set_uint16_le b 19 r.target_rx;
  Bytes.set_uint16_le b 21 klen;
  Bytes.set_int32_le b 23
    (match r.value with None -> Int32.of_int no_value | Some _ -> Int32.of_int vlen);
  Bytes.blit_string r.key 0 b request_header klen;
  (match r.value with
  | Some v -> Bytes.blit v 0 b (request_header + klen) vlen
  | None -> ());
  b

type view = {
  mutable view_op : op;
  mutable key_off : int;
  mutable key_len : int;
  mutable value_off : int;
  mutable value_len : int;
}

let view () = { view_op = Get; key_off = 0; key_len = 0; value_off = 0; value_len = -1 }

(* id(8) then client_ts(8): at offset 3 of a request and of a reply. *)
let ids_at = 3

let ids_bytes = 16

let[@cold] bad_version v = Some (Bad_version v)

(* The one request parser.  The 4-byte value length is read as two
   16-bit halves: a 32-bit getter returns a boxed [int32]. *)
let decode_request_view v b ~off ~len =
  if len < request_header then Some Truncated
  else if Bytes.get_uint8 b off <> request_magic then Some Bad_magic
  else
    let ver = Bytes.get_uint8 b (off + 1) in
    if ver <> version then bad_version ver
    else
      match op_of_code (Bytes.get_uint8 b (off + 2)) with
      | None -> Some Bad_op
      | Some op ->
          let klen = Bytes.get_uint16_le b (off + 21) in
          let vfield =
            Bytes.get_uint16_le b (off + 23) lor (Bytes.get_uint16_le b (off + 25) lsl 16)
          in
          let vlen = if vfield = no_value then 0 else vfield in
          if len < request_header + klen + vlen then Some Truncated
          else begin
            v.view_op <- op;
            v.key_off <- off + request_header;
            v.key_len <- klen;
            v.value_off <- off + request_header + klen;
            v.value_len <- (if vfield = no_value then -1 else vlen);
            None
          end

let decode_request b =
  let v = view () in
  match decode_request_view v b ~off:0 ~len:(Bytes.length b) with
  | Some e -> Error e
  | None ->
      Stdlib.Ok
        {
          id = Bytes.get_int64_le b ids_at;
          op = v.view_op;
          key = Bytes.sub_string b v.key_off v.key_len;
          value = (if v.value_len < 0 then None else Some (Bytes.sub b v.value_off v.value_len));
          client_ts = Bytes.get_int64_le b (ids_at + 8);
          target_rx = Bytes.get_uint16_le b 19;
        }

let reply_header_size = reply_header

(* A reply's header without its ids. *)
let write_reply_fields b ~off ~status ~value_len =
  let vfield = if value_len < 0 then no_value else value_len in
  Bytes.set_uint8 b off reply_magic;
  Bytes.set_uint8 b (off + 1) version;
  Bytes.set_uint8 b (off + 2) (status_code status);
  Bytes.set_uint16_le b (off + 19) (vfield land 0xFFFF);
  Bytes.set_uint16_le b (off + 21) (vfield lsr 16)

let write_reply_header b ~off ~ids ~ids_off ~status ~value_len =
  write_reply_fields b ~off ~status ~value_len;
  Bytes.blit ids ids_off b (off + ids_at) ids_bytes

let encode_reply r =
  let vlen = value_len r.value in
  let b = Bytes.create (reply_header + vlen) in
  write_reply_fields b ~off:0 ~status:r.status
    ~value_len:(match r.value with None -> -1 | Some _ -> vlen);
  Bytes.set_int64_le b ids_at r.id;
  Bytes.set_int64_le b (ids_at + 8) r.client_ts;
  (match r.value with Some v -> Bytes.blit v 0 b reply_header vlen | None -> ());
  b

let decode_reply b =
  let len = Bytes.length b in
  if len < reply_header then Error Truncated
  else if Bytes.get_uint8 b 0 <> reply_magic then Error Bad_magic
  else
    match check_version b with
    | Some e -> Error e
    | None -> (
        match status_of_code (Bytes.get_uint8 b 2) with
        | None -> Error Bad_status
        | Some status ->
            let id = Bytes.get_int64_le b 3 in
            let client_ts = Bytes.get_int64_le b 11 in
            let vfield = Int32.to_int (Bytes.get_int32_le b 19) land 0xFFFFFFFF in
            let vlen = if vfield = no_value then 0 else vfield in
            if len < reply_header + vlen then Error Truncated
            else begin
              let value =
                if vfield = no_value then None else Some (Bytes.sub b reply_header vlen)
              in
              Stdlib.Ok { id; status; value; client_ts }
            end)
