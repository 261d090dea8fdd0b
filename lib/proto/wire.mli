(** Minos wire protocol: binary request/reply codecs.

    Clients and the server exchange UDP datagrams (§4.1).  A request names
    the operation, carries the client's send timestamp (echoed in the reply
    and used for end-to-end latency measurement, §5.4), the RX queue the
    client aimed the packet at, and a request id for client-side
    retransmission of idempotent operations.

    The encoding is little-endian with fixed-width fields — no varints, so
    sizes are predictable for the framing arithmetic. *)

type op =
  | Get
  | Put
  | Delete
  | Scan
      (** ordered range read: [key] is the start key; the value payload
          carries the requested entry count ({!encode_scan_count}) *)

type request = {
  id : int64;          (** client-chosen id, echoed in the reply *)
  op : op;
  key : string;
  value : bytes option;(** present for [Put] and [Scan] *)
  client_ts : int64;   (** client send timestamp (ns or µs; opaque) *)
  target_rx : int;     (** RX queue id the client aimed at, 0..65535 *)
}

type status =
  | Ok
  | Not_found
  | Overloaded
      (** admission control shed the request; the client should back off
          and retry (the request was {e not} executed) *)

type reply = {
  id : int64;
  status : status;
  value : bytes option;(** present for a successful [Get] *)
  client_ts : int64;   (** echoed request timestamp *)
}

type error =
  | Truncated
  | Bad_magic
  | Bad_version of int
      (** the header carried this (unsupported) protocol version *)
  | Bad_op
  | Bad_status

val pp_error : Format.formatter -> error -> unit

val version : int
(** Protocol version this build speaks, carried in byte 1 of every
    message (right after the magic).  Decoders reject any other value
    with {!Bad_version} — additions to the format must bump it. *)

val request_size : request -> int
(** Exact encoded size in bytes, without encoding. *)

val reply_size : reply -> int

val encode_request : request -> bytes

val decode_request : bytes -> (request, error) result

val encode_reply : reply -> bytes

val decode_reply : bytes -> (reply, error) result

val reply_header_size : int
(** Bytes of a reply before its value: magic(1) version(1) status(1)
    id(8) client_ts(8) value_len(4) = 23. *)

val write_reply_header :
  bytes ->
  off:int ->
  id:int64 ->
  status:status ->
  client_ts:int64 ->
  value_len:int ->
  unit
(** Write a reply's header at [off], in place: the {!reply_header_size}
    bytes {!encode_reply} puts before the value, for a value of
    [value_len] bytes ([value_len < 0]: no value).  The value itself
    goes right after the header, where the caller copies it.  Allocates
    nothing. *)

val get_reply_size : value_len:int -> int
(** Encoded size of a successful GET reply carrying a value of this length;
    used by the simulator without materializing values. *)

val put_request_size : key_len:int -> value_len:int -> int
(** Encoded size of a PUT request; used by the simulator. *)

val get_request_size : key_len:int -> int

val put_reply_size : int
(** PUT replies carry no value payload — the reason 50:50 workloads push
    more ops through the same NIC (§6.2). *)

val scan_request_size : key_len:int -> int
(** Encoded size of a SCAN request: header + start key + the 4-byte entry
    count carried as its value payload. *)

val encode_scan_count : int -> bytes
(** The 4-byte SCAN value payload.  Raises [Invalid_argument] outside
    [0, 0xFFFFFF]. *)

val decode_scan_count : bytes -> int option
(** Inverse of {!encode_scan_count}; [None] on wrong length or an
    out-of-range count. *)
