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

val frame_in_place : bytes -> id:bytes -> id_off:int -> total:int -> index:int -> int
(** Frame one fragment of a message without copying it.  The [total]-byte
    message is stored in [buf] from offset {!header_size}.  This writes
    fragment [index]'s header just before its payload, with the message
    id copied from the 8 little-endian bytes at [id_off] in [id], and
    returns the datagram's length; the datagram starts at
    [index * max_fragment_payload].  [id] may be [buf] itself, at bytes
    no header overwrites (the first fragment's payload, before its last
    {!header_size} bytes).  Each header overwrites the tail of
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
    ignored ([None]).  Fragments of different messages may interleave.
    At most {!max_pending} messages are buffered part-way: the first
    fragment of one more discards the oldest partial message and the
    fragments it held, so its remaining fragments alone never complete
    it.  A partial holds the payloads it received, two words per
    received fragment, and one bit per fragment its count claims (at most
    8 KB): a first fragment that claims 65535 fragments pins its own
    bytes and 8 KB, not a slot per claimed fragment. *)

val whole : reassembler -> bytes -> len:int -> int
(** [whole t b ~len]: for the [len]-byte datagram at the start of [b], the
    length of its payload (which starts at {!header_size}) when the
    datagram is a whole message by itself, one that {!offer} would return
    at once; [-1] otherwise.  A server decodes such a message in place.
    Allocates nothing unless a partial message is pending in [t]. *)

val max_pending : int
(** The bound on partially reassembled messages per reassembler (64).
    Only test_proto reads it, to check that a flood stays under it. *)

val pending : reassembler -> int
(** Number of partially reassembled messages currently buffered.  Only
    test_proto reads it, to check that garbage and completed messages
    leave nothing buffered. *)
