(** Kernel-UDP transport for the native server.

    The closest commodity-hardware analogue of the paper's deployment: one
    UDP socket per worker core plays the role of that core's NIC RX queue
    (the paper steers packets to queues with RSS; here the client picks
    the destination port, which is what its port probing achieves).
    There are no I/O domains: each {!Server} worker receives from its own
    non-blocking socket, reassembles multi-fragment requests, decodes
    them, serves them and sends the fragmented reply itself, and parks on
    [poll] on its socket when idle.  A large request crosses to a
    large core like any other, and that core sends its reply, from the
    socket the request arrived on.

    A reply is built in the serving worker's TX buffer, which grows to
    the largest reply that worker has sent and is kept: a GET's value is
    copied once, from the store's slab to behind the reply header, and
    each fragment's header is written in place in front of its payload,
    so sending a reply allocates nothing.  A request that fits one
    datagram is decoded where it was received, and a flat per-queue
    table of slots carries it to its reply: a slot keeps the request's
    id and client timestamp as the wire's bytes, its sender as raw
    address bytes, and a pooled GET record.  A single-datagram GET
    therefore allocates nothing from receive to reply; other requests
    carry their payloads in fresh records.

    A {!Proto.Dedup} cache holds the replies to mutations (PUT, DELETE):
    a retransmitted mutation is replayed, not run twice.  A retransmitted
    GET or SCAN runs again and returns the current value, which is still
    a linearizable read; the paper assumes idempotent operations (§4.1).
    An [Overloaded] reply is never cached, so a retransmission of a shed
    request is executed once the overload passes.

    All operations — including DELETEs, which the paper treats as special
    PUTs (§3) — flow through the server's scheduler. *)

type t

val start :
  ?obs:Obs.Instrument.t ->
  ?config:Server.config ->
  ?base_port:int ->
  Kvstore.Store.t ->
  t
(** Bind [config.cores] sockets on [base_port..base_port+cores-1]
    (default 47700) on the loopback interface and start a {!Server} over
    them: [config.cores] domains in all.  [obs] is forwarded to
    {!Server.start}. *)

val base_port : t -> int

val queues : t -> int

val server : t -> Server.t

val stop : t -> unit
(** {!Server.stop} (stop intake, answer what was accepted, join the
    workers), then close the sockets. *)

(** A blocking client with client-side retransmission (§4.1). *)
module Client : sig
  type c

  exception Timeout

  exception Budget_exhausted
  (** The connection's {!Proto.Retry.Budget} blocked a retransmission:
      the server is systematically unresponsive or shedding, and piling
      on more retries would amplify the overload.  Fail fast instead. *)

  exception Server_dead
  (** The destination answered with ICMP port-unreachable
      ([ECONNREFUSED] on the connected socket): nothing listens there —
      the server process is gone, not slow.  Raised immediately, with
      the retry schedule abandoned and the retry budget untouched:
      crash recovery is the caller's (failover's) job, and burning
      timeouts or tokens on a dead endpoint would only delay it.  A
      {e silently} dead endpoint (e.g. a firewall eating packets) still
      surfaces as {!Timeout} after the full schedule. *)

  val connect :
    ?retry:Proto.Retry.config ->
    ?budget:Proto.Retry.Budget.t ->
    ?seed:int ->
    ?base_port:int ->
    queues:int ->
    unit ->
    c
  (** [connect ~queues ()] prepares a client for a server with that many
      RX queues.  GETs go to a uniformly random queue, PUTs to the key's
      master queue — the client-side dispatch of §3.  One [connect()]ed
      socket per queue, so a dead endpoint's ICMP rejection surfaces as
      {!Server_dead} instead of a silent retry burn.  Retransmission
      timeouts jitter decorrelated on the client's seeded RNG (a fixed
      [seed] reproduces the exact schedule); [budget] is the shared
      token bucket retries draw from (default: 50 tokens, 0.5 earned per
      call). *)

  val get : c -> string -> bytes option
  (** [None] when the key is absent.  Raises {!Timeout} when every
      retransmission went unanswered. *)

  val put : c -> string -> bytes -> unit

  val delete : c -> string -> bool

  val sheds : c -> int
  (** [Overloaded] replies this connection has absorbed — each one is a
      request the server's admission control rejected before execution
      (the client then backed off and retransmitted).  Only
      test_runtime reads it, to check that admission control sheds. *)

  val close : c -> unit
end
