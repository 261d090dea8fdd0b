(** Ethernet/IP/UDP framing arithmetic.

    Minos speaks UDP over IPv4 over Ethernet (§4.1); requests and replies
    that exceed one MTU are fragmented at the UDP level by the client and
    server.  This module centralizes the byte accounting used both by the
    cost model (packets per request) and by the NIC bandwidth model (bytes
    on the wire, including per-frame overheads). *)

val max_udp_payload : int
(** UDP payload bytes that fit in one frame: the 1500-byte Ethernet MTU
    less the 20-byte IPv4 and 8-byte UDP headers, 1472. *)

val frames_for_payload : int -> int
(** Number of UDP fragments needed for a payload of this many bytes.  A
    zero-byte payload still needs one frame. *)

val wire_bytes_for_frame_payload : int -> int
(** Bytes consumed on the wire by a single frame carrying this UDP payload:
    the payload plus 66 bytes of UDP (8), IPv4 (20), Ethernet header and
    FCS (18), preamble and inter-frame gap (20). *)

val wire_bytes_for_payload : int -> int
(** Total wire bytes to carry a (possibly fragmented) UDP payload. *)
