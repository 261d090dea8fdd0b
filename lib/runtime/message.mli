(** Messages exchanged between load generators and the native server.

    The native runtime ({!Server}) runs the size-aware sharding design on
    real OCaml domains.  In-process transport carries these records over
    lock-free rings; the UDP example converts them to {!Proto.Wire}
    datagrams instead. *)

type op =
  | Get
  | Put of bytes  (** the bytes to store *)
  | Put_ttl of bytes * float
      (** store with a TTL in seconds; the item expires lazily on read
          and eagerly via the server's background sweep *)
  | Delete        (** "considered [a] special version of PUT" (§3) *)
  | Scan of int
      (** ordered range read of up to this many items starting at [key]
          (inclusive); the reply reports the range's total bytes *)

type request = {
  id : int64;
      (** the submitter's id; a request the UDP transport admits carries
          the transport's name for the request's slot instead, and the
          client's id stays in that slot *)
  op : op;
  mutable key : string;
      (** mutable only for the UDP transport, whose GET records are
          pooled: each slot refills its record's key in place, so the
          server must not keep a GET's key past its reply *)
  submitted_at : float;
      (** [Unix.gettimeofday] at an in-process submission, seconds; 0.0
          for a request the UDP transport admits, whose latency the
          client measures from the timestamp the reply echoes *)
  mutable obs_slot : int;
      (** flight-recorder slot assigned by {!Server.submit} when the
          request is sampled; construct with [-1] *)
}

type status =
  | Ok
  | Not_found
  | Overloaded
      (** the server's admission control shed the request before
          execution, or the store had no room for a PUT's value; back off
          and retry *)

type reply = {
  request_id : int64;
  status : status;
  value : bytes option;  (** the item for a successful GET *)
  value_size : int;      (** bytes returned (GET) or written (PUT) *)
  served_by : int;       (** worker core id, for load accounting *)
  completed_at : float;
      (** [Unix.gettimeofday] when the serving worker began its batch,
          re-read after each reply or write bigger than one datagram: a
          request's latency includes every large request served ahead of
          it in the batch, but not the service of small ones (a few µs) *)
}

val latency_us : request -> reply -> float
(** End-to-end latency in microseconds. *)
