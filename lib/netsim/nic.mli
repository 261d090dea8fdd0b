(** Multi-queue NIC model: one receive queue per core (the paper
    configures n RX and n TX queues).

    The paper's Minos steers requests with NIC hardware: RSS sprays GETs
    over the RX queues and Flow Director sends a PUT to its key's queue.
    The simulator models the outcome of that steering, not the hardware.
    The server's design picks the queue before {!deliver}: a GET or SCAN
    draws its RX queue uniformly from the engine's dispatch RNG
    ([Kvserver.Engine.uniform_queue]), and a PUT (or, under EREW, a GET)
    goes to its key's partition mod cores ([Kvserver.Engine.put_master]).
    The software-handoff baseline sprays every request uniformly over its
    handoff cores instead.
    Replies leave through the frame-level scheduler {!Txsched}.

    The element type is abstract: the server library enqueues its own
    request records. *)

type 'a t

val create : queues:int -> dummy:'a -> 'a t
(** [dummy] fills vacated RX-queue slots (see {!Fifo.create}). *)

val rx : 'a t -> int -> 'a Fifo.t
(** The RX queue with the given id. *)

val deliver : 'a t -> queue:int -> 'a -> unit
(** A request arrives on [queue]. *)
