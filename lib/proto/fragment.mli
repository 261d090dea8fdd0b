(** UDP-level fragmentation and reassembly.

    "Requests that span multiple frames (large PUT requests and large GET
    replies) are fragmented and defragmented at the UDP level" (§4.1).
    Each fragment carries a small header naming the message, its index and
    the fragment count, so the receiver can reassemble messages that
    interleave on the same queue and discard incomplete ones. *)

val header_size : int
(** Bytes of fragment header per frame: magic(1) msg_id(8) index(2)
    count(2) payload_len(2) = 15. *)

val max_fragment_payload : int
(** Message bytes that fit in one fragment:
    [Netsim.Frame.max_udp_payload - header_size]. *)

val fragments_for : int -> int
(** Number of fragments needed for an encoded message of this size. *)

val split : msg_id:int64 -> bytes -> bytes list
(** Split an encoded message into ready-to-send datagrams (each at most
    {!Netsim.Frame.max_udp_payload} bytes, including the fragment
    header). *)

val frame_in_place : bytes -> msg_id:int64 -> total:int -> index:int -> int
(** Frame one fragment of a message without copying it.  The [total]-byte
    message is stored in [buf] from offset {!header_size}.  This writes
    fragment [index]'s header just before its payload and returns the
    datagram's length; the datagram starts at
    [index * max_fragment_payload].  Each header overwrites the tail of
    the previous fragment's payload, so frame and send the fragments in
    index order, each before framing the next.  The datagrams are the
    ones {!split} returns.  Raises [Invalid_argument] when the message
    needs more than 0xFFFF fragments, as {!split} does.  Allocates
    nothing. *)

type reassembler

val create_reassembler : unit -> reassembler

val offer : reassembler -> bytes -> (int64 * bytes) option
(** Feed one received datagram.  Returns [Some (msg_id, message)] when this
    datagram completes a message.  Malformed or duplicate fragments are
    ignored ([None]).  Fragments of different messages may interleave. *)

val pending : reassembler -> int
(** Number of partially reassembled messages currently buffered.  Only
    test_proto reads it, to check that garbage and completed messages
    leave nothing buffered. *)
