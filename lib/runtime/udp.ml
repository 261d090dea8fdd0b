let loopback = Unix.inet_addr_loopback

let max_datagram = Netsim.Frame.max_udp_payload

(* Socket calls that never block, never raise and allocate nothing
   (udp_stubs.c).  A peer is [peer_bytes] bytes: its address's length,
   then the address.  [recv] returns the datagram's length and writes its
   sender into [peer], or returns -1 when none is waiting; [sendto] sends
   to the peer at [peer_off] in its [peer] argument, and returns -1 when
   the kernel refuses the datagram. *)
external recv : Unix.file_descr -> bytes -> int -> int -> bytes -> int = "minos_udp_recv"
  [@@noalloc]

external sendto : Unix.file_descr -> bytes -> int -> int -> bytes -> int -> int
  = "minos_udp_sendto_byte" "minos_udp_sendto"
  [@@noalloc]

external wait_readable : Unix.file_descr -> int -> unit = "minos_udp_wait_readable"

let peer_bytes = 32 (* PEER_BYTES in udp_stubs.c *)

(* A request's bytes in its slot: its id and client timestamp as the wire
   carried them, then its sender. *)
let meta_bytes = Proto.Wire.ids_bytes + peer_bytes

let peer_at = Proto.Wire.ids_bytes

(* A queue's requests in flight, one slot each from receipt to reply: the
   flat table that tells a reply where to go.  A request's [id] names its
   slot ([queue * capacity + slot]); the client's id stays in the slot's
   bytes, so no [int64] is boxed per request.  Slots are reused last in,
   first out, so a light load touches only the first few. *)
type slots = {
  records : Message.request array;
      (* slot -> its GET record, made at the slot's first use and reused
         by every GET it carries; a request of another op copies its
         [id] *)
  meta : Bytes.t; (* slot -> [meta_bytes] bytes *)
  free : Bytes.t; (* a stack of freed slots, 4 bytes each *)
  mutable n_free : int;
  mutable fresh : int; (* slots [fresh, capacity) were never used *)
  lock : Kvstore.Spinlock.t;
}

let unused = { Message.id = -1L; op = Message.Get; key = ""; submitted_at = 0.0; obs_slot = -1 }

(* The socket transport's state, shared by the worker domains.  Queue [q]
   has its socket, receive buffer, sender, decoded view, fragment
   reassembler and TX buffer, all used by worker [q] only; its slots are
   taken by worker [q] and freed by whichever worker replies. *)
type conn = {
  sockets : Unix.file_descr array;
  bufs : Bytes.t array;
  peers : Bytes.t array; (* queue -> its last datagram's sender *)
  views : Proto.Wire.view array; (* queue -> its last request, decoded in place *)
  slots : slots array;
  capacity : int; (* slots per queue *)
  reassemblers : Proto.Fragment.reassembler array;
  tx : Bytes.t array;
      (* worker [q]'s outgoing message, from offset [Fragment.header_size]
         so its fragments can be framed in place; grown to the largest
         reply the worker has sent, and kept *)
  dedup : bytes Proto.Dedup.t; (* mutation's request id -> encoded reply *)
  dedup_lock : Mutex.t;
  recorder : Obs.Recorder.t option;
}

type t = { server : Server.t; conn : conn; base_port : int; mutable stopped : bool }

(* ---- slots ------------------------------------------------------------ *)

(* A free slot, or -1 when every one is in flight. *)
let take_slot s capacity =
  Kvstore.Spinlock.lock s.lock;
  let i =
    if s.n_free > 0 then begin
      s.n_free <- s.n_free - 1;
      let at = 4 * s.n_free in
      Bytes.get_uint16_le s.free at lor (Bytes.get_uint16_le s.free (at + 2) lsl 16)
    end
    else if s.fresh < capacity then begin
      s.fresh <- s.fresh + 1;
      s.fresh - 1
    end
    else -1
  in
  Kvstore.Spinlock.unlock s.lock;
  i

let free_slot s i =
  Kvstore.Spinlock.lock s.lock;
  let at = 4 * s.n_free in
  Bytes.set_uint16_le s.free at (i land 0xFFFF);
  Bytes.set_uint16_le s.free (at + 2) (i lsr 16);
  s.n_free <- s.n_free + 1;
  Kvstore.Spinlock.unlock s.lock

(* Slot [i]'s record, made at the slot's first use. *)
let[@cold] make_record c queue s i =
  let r =
    {
      Message.id = Int64.of_int ((queue * c.capacity) + i);
      op = Message.Get;
      key = "";
      submitted_at = 0.0;
      obs_slot = -1;
    }
  in
  s.records.(i) <- r;
  r

let slot_record c queue s i =
  let r = s.records.(i) in
  if r == unused then make_record c queue s i else r

(* Note the request at [off] in [b], just received on [queue], in slot
   [i]: its ids and its sender. *)
let note_sender c queue s i b off =
  Bytes.blit b (off + Proto.Wire.ids_at) s.meta (i * meta_bytes) Proto.Wire.ids_bytes;
  Bytes.blit c.peers.(queue) 0 s.meta ((i * meta_bytes) + peer_at) peer_bytes

(* ---- replies ------------------------------------------------------------ *)

(* Worker [q]'s TX buffer, with room for a [size]-byte message. *)
let[@cold] grow_tx c q need =
  c.tx.(q) <- Bytes.create need;
  c.tx.(q)

let tx_buf c q size =
  let need = Proto.Fragment.header_size + size in
  if Bytes.length c.tx.(q) < need then grow_tx c q need else c.tx.(q)

(* [Server.transport.value_buf]: a GET's value goes straight after the
   reply header in the serving worker's TX buffer. *)
let value_off = Proto.Fragment.header_size + Proto.Wire.reply_header_size

let value_buf c q len = tx_buf c q (Proto.Wire.reply_header_size + len)

(* Where a message's id lies in a TX buffer: in its reply header, which
   no fragment header overwrites. *)
let tx_id_at = Proto.Fragment.header_size + Proto.Wire.ids_at

(* Send the [total]-byte message in worker [q]'s TX buffer to the peer at
   [peer_off] in [peers], each fragment framed in place.  A datagram the
   kernel will not take now is dropped, as the wire would drop it: the
   client retransmits. *)
let send_message c q sock peers peer_off total =
  let buf = c.tx.(q) in
  for index = 0 to Proto.Fragment.fragments_for total - 1 do
    let len = Proto.Fragment.frame_in_place buf ~id:buf ~id_off:tx_id_at ~total ~index in
    ignore (sendto sock buf (index * Proto.Fragment.max_fragment_payload) len peers peer_off)
  done

(* Copy an encoded message into worker [q]'s TX buffer and send it. *)
let send_copy c q sock peers peer_off encoded =
  let total = Bytes.length encoded in
  Bytes.blit encoded 0 (tx_buf c q total) Proto.Fragment.header_size total;
  send_message c q sock peers peer_off total

let locked c f =
  Mutex.lock c.dedup_lock;
  match f () with
  | v ->
      Mutex.unlock c.dedup_lock;
      v
  | exception e ->
      Mutex.unlock c.dedup_lock;
      raise e

(* A copy of this request that ran meanwhile may have cached its reply
   first; every copy then answers with that one. *)
let cache_reply c id encoded =
  locked c (fun () -> fst (Proto.Dedup.execute c.dedup ~id (fun () -> encoded)))

(* Only a mutation's reply is cached: a retransmitted PUT or DELETE is
   replayed, a retransmitted read runs again and returns the current
   value.  Shed replies are not cached either: a retransmission of a shed
   request should re-attempt execution once the overload passes, not
   replay the rejection. *)
let cacheable (req : Message.request) (status : Message.status) =
  match req.Message.op with
  | Message.Put _ | Message.Delete -> (
      match status with Message.Ok | Message.Not_found -> true | Message.Overloaded -> false)
  | Message.Get | Message.Scan _ -> false

let[@cold] send_cached c q sock s i total =
  let encoded = Bytes.sub c.tx.(q) Proto.Fragment.header_size total in
  let id = Bytes.get_int64_le s.meta (i * meta_bytes) in
  send_copy c q sock s.meta ((i * meta_bytes) + peer_at) (cache_reply c id encoded)

let wire_status = function
  | Message.Ok -> Proto.Wire.Ok
  | Message.Not_found -> Proto.Wire.Not_found
  | Message.Overloaded -> Proto.Wire.Overloaded

(* [Server.transport.reply], on the serving worker [q]'s domain: write the
   reply header in its TX buffer (a GET's value is already behind it),
   send it from the socket the request arrived on — the client's socket
   is connected to that port and accepts nothing else — and free the
   request's slot. *)
let reply c q (req : Message.request) status value value_size =
  let h = Int64.to_int req.Message.id in
  let queue = h / c.capacity and i = h mod c.capacity in
  if h >= 0 && queue < Array.length c.slots && c.slots.(queue).records.(i).Message.id == req.Message.id
  then begin
    let s = c.slots.(queue) in
    let value_len = match value with Some _ -> value_size | None -> -1 in
    let total = Proto.Wire.reply_header_size + max 0 value_len in
    let buf = tx_buf c q total in
    Proto.Wire.write_reply_header buf ~off:Proto.Fragment.header_size ~ids:s.meta
      ~ids_off:(i * meta_bytes) ~status:(wire_status status) ~value_len;
    let sock = c.sockets.(queue) in
    if cacheable req status then send_cached c q sock s i total
    else send_message c q sock s.meta ((i * meta_bytes) + peer_at) total;
    free_slot s i
  end
(* else submitted in-process *)

(* ---- requests ----------------------------------------------------------- *)

(* A sampled request's span is labelled with the client's id, which the
   request's [id] (its slot's name) does not carry. *)
let[@cold] label_span c (req : Message.request) s i =
  match c.recorder with
  | None -> ()
  | Some r ->
      Obs.Recorder.set_meta r req.Message.obs_slot Obs.Span.meta_seq
        (Int64.to_int (Bytes.get_int64_le s.meta (i * meta_bytes)))

(* Hand a request in slot [i] to the queue's RX ring, or free the slot
   when the ring refuses it. *)
let admit_slot c admit s i (req : Message.request) =
  if not (admit req) then free_slot s i
  else if req.Message.obs_slot >= 0 then label_span c req s i

(* The key of a slot's GET record is the slot's own buffer, refilled in
   place from each GET it carries: the server only reads a GET's key (no
   store structure keeps it), and the slot is reused only after the
   reply, so no reader sees it change. *)
let[@cold] replace_key (req : Message.request) b off len =
  req.Message.key <- Bytes.sub_string b off len

let set_key (req : Message.request) b off len =
  if String.length req.Message.key = len then
    Bytes.blit b off (Bytes.unsafe_of_string req.Message.key) 0 len
  else replace_key req b off len

(* A GET decoded in place at [off] in [b]: a slot's record carries it to
   the queue's RX ring.  A full ring drops it (the client retransmits), as
   does a queue with every slot in flight. *)
let accept_get c queue admit b off =
  let s = c.slots.(queue) in
  let i = take_slot s c.capacity in
  if i >= 0 then begin
    note_sender c queue s i b off;
    let req = slot_record c queue s i in
    let v = c.views.(queue) in
    set_key req b v.Proto.Wire.key_off v.Proto.Wire.key_len;
    req.Message.obs_slot <- -1;
    admit_slot c admit s i req
  end

(* [None] for a request whose op lacks its payload: a PUT without a value
   or a SCAN without a valid count. *)
let message_op (v : Proto.Wire.view) b =
  let value () = Bytes.sub b v.Proto.Wire.value_off v.Proto.Wire.value_len in
  match v.Proto.Wire.view_op with
  | Proto.Wire.Get -> Some Message.Get
  | Proto.Wire.Delete -> Some Message.Delete
  | (Proto.Wire.Put | Proto.Wire.Scan) when v.Proto.Wire.value_len < 0 -> None
  | Proto.Wire.Put -> Some (Message.Put (value ()))
  | Proto.Wire.Scan -> Option.map (fun n -> Message.Scan n) (Proto.Wire.decode_scan_count (value ()))

(* Any other request carries its payload in a fresh record, and a
   mutation completed before is replayed from the dedup cache.  Reads
   skip the cache: only mutations' replies are in it. *)
let[@cold] accept_other c queue admit b off =
  let v = c.views.(queue) in
  match message_op v b with
  | None -> () (* dropped, as malformed datagrams are *)
  | Some op -> (
      let id = Bytes.get_int64_le b (off + Proto.Wire.ids_at) in
      let cached =
        match op with
        | Message.Put _ | Message.Delete ->
            locked c (fun () -> Proto.Dedup.find c.dedup id)
        | Message.Get | Message.Scan _ -> None
      in
      match cached with
      | Some encoded -> send_copy c queue c.sockets.(queue) c.peers.(queue) 0 encoded
      | None ->
          let s = c.slots.(queue) in
          let i = take_slot s c.capacity in
          if i >= 0 then begin
            note_sender c queue s i b off;
            let key = Bytes.sub_string b v.Proto.Wire.key_off v.Proto.Wire.key_len in
            let req =
              {
                Message.id = (slot_record c queue s i).Message.id;
                op;
                key;
                submitted_at = 0.0;
                obs_slot = -1;
              }
            in
            admit_slot c admit s i req
          end)

(* The request at [off] in [b], [len] bytes, decoded in place. *)
let accept c queue admit b off len =
  let v = c.views.(queue) in
  match Proto.Wire.decode_request_view v b ~off ~len with
  | Some _ -> () (* malformed datagrams are dropped *)
  | None -> (
      match v.Proto.Wire.view_op with
      | Proto.Wire.Get -> accept_get c queue admit b off
      | Proto.Wire.Put | Proto.Wire.Delete | Proto.Wire.Scan -> accept_other c queue admit b off)

(* A fragment of a larger message: its reassembled copy is accepted once
   the last fragment arrives. *)
let[@cold] reassemble c queue admit buf len =
  match Proto.Fragment.offer c.reassemblers.(queue) (Bytes.sub buf 0 len) with
  | None -> ()
  | Some (_, msg) -> accept c queue admit msg 0 (Bytes.length msg)

(* [Server.transport.receive]: drain up to a batch of datagrams from the
   queue's non-blocking socket.  A request in one datagram is decoded
   where it was received; an empty socket costs one [recv]. *)
let rec receive_batch c queue admit sock buf n =
  if n >= Server.batch then n
  else
    let len = recv sock buf 0 (Bytes.length buf) c.peers.(queue) in
    if len < 0 then n
    else begin
      let plen = Proto.Fragment.whole c.reassemblers.(queue) buf ~len in
      if plen >= 0 then accept c queue admit buf Proto.Fragment.header_size plen
      else reassemble c queue admit buf len;
      receive_batch c queue admit sock buf (n + 1)
    end

let receive c queue admit = receive_batch c queue admit c.sockets.(queue) c.bufs.(queue) 0

(* [Server.transport.park]: sleep until a datagram arrives on the
   queue's socket, or [timeout_s] passes. *)
let park c queue timeout_s =
  wait_readable c.sockets.(queue) (int_of_float (timeout_s *. 1.0e6))

(* Mutations whose replies the dedup cache keeps for retransmissions. *)
let dedup_capacity = 8192

let start ?obs ?(config = Server.default_config) ?(base_port = 47700) store =
  let cores = config.Server.cores in
  let sockets =
    Array.init cores (fun q ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.setsockopt_int sock Unix.SO_RCVBUF (4 * 1024 * 1024);
        Unix.set_nonblock sock;
        Unix.bind sock (Unix.ADDR_INET (loopback, base_port + q));
        sock)
  in
  (* Every request in flight from a queue sits in its RX ring, in a
     software queue or in a worker's polled batch, so slots never run
     out. *)
  let capacity =
    (Server.ring_capacity * (cores + 1)) + (cores * Server.batch * (cores + 2))
  in
  let conn =
    {
      sockets;
      bufs = Array.init cores (fun _ -> Bytes.create (max_datagram + 64));
      peers = Array.init cores (fun _ -> Bytes.make peer_bytes '\000');
      views = Array.init cores (fun _ -> Proto.Wire.view ());
      slots =
        Array.init cores (fun _ ->
            {
              records = Array.make capacity unused;
              meta = Bytes.create (capacity * meta_bytes);
              free = Bytes.create (4 * capacity);
              n_free = 0;
              fresh = 0;
              lock = Kvstore.Spinlock.create ();
            });
      capacity;
      reassemblers = Array.init cores (fun _ -> Proto.Fragment.create_reassembler ());
      tx = Array.init cores (fun _ -> Bytes.create max_datagram);
      dedup = Proto.Dedup.create ~capacity:dedup_capacity ();
      dedup_lock = Mutex.create ();
      recorder = Option.map (fun o -> o.Obs.Instrument.recorder) obs;
    }
  in
  let transport =
    {
      Server.receive = receive conn;
      value_buf = value_buf conn;
      value_off;
      reply = reply conn;
      park = park conn;
    }
  in
  let server =
    try Server.start ?obs ~config ~transport store
    with e ->
      Array.iter Unix.close sockets;
      raise e
  in
  { server; conn; base_port; stopped = false }

let base_port t = t.base_port

let queues t = Array.length t.conn.sockets

let server t = t.server

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Server.stop t.server;
    Array.iter Unix.close t.conn.sockets
  end

(* ------------------------------------------------------------------ *)

module Client = struct
  type c = {
    socks : Unix.file_descr array; (* one connect()ed socket per queue *)
    queues : int;
    retry : Proto.Retry.config;
    rng : Dsim.Rng.t;
    budget : Proto.Retry.Budget.t;
    reassembler : Proto.Fragment.reassembler;
    buf : Bytes.t;
    mutable next_id : int64;
    mutable sheds : int;
  }

  exception Timeout

  exception Budget_exhausted

  exception Server_dead

  let connect
      ?(retry =
        {
          Proto.Retry.max_attempts = 5;
          timeout_us = 200_000.0;
          backoff = 2.0;
          cap_us = infinity;
        })
      ?(budget = Proto.Retry.Budget.create ~capacity:50.0 ~earn_per_call:0.5 ())
      ?seed ?(base_port = 47700) ~queues () =
    (* One connect()ed socket per server queue: an unconnected datagram
       socket never learns of the ICMP port-unreachable a dead endpoint
       answers with, so a crashed server would silently burn the whole
       retry schedule.  Connected sockets surface it as [ECONNREFUSED]
       on the next send or receive, which {!rpc} turns into the typed
       {!Server_dead} — fail fast, retry budget untouched. *)
    let socks =
      Array.init queues (fun q ->
          let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
          Unix.setsockopt_int sock Unix.SO_RCVBUF (4 * 1024 * 1024);
          Unix.connect sock (Unix.ADDR_INET (loopback, base_port + q));
          sock)
    in
    (* Distinct client sessions must not reuse request ids: the server's
       dedup cache would replay another session's replies.  Each session
       draws a random id-space origin (a fixed [seed] makes it
       reproducible for tests). *)
    let seed =
      match seed with
      | Some s -> s
      | None -> Hashtbl.hash (Unix.gettimeofday (), Unix.getpid ())
    in
    let rng = Dsim.Rng.create seed in
    {
      socks;
      queues;
      retry;
      rng;
      budget;
      reassembler = Proto.Fragment.create_reassembler ();
      buf = Bytes.create (max_datagram + 64);
      next_id = Dsim.Rng.bits64 rng;
      sheds = 0;
    }

  let close c = Array.iter Unix.close c.socks

  let key_queue c key =
    Kvstore.Keyhash.partition_of (Kvstore.Keyhash.hash key) ~bits:30 mod c.queues

  (* Wait up to [timeout_us] for the reply with [id], feeding any received
     fragments (late replies of other requests are discarded).  The
     deadline is tracked on the monotonic clock — a wall-clock step (NTP
     slew, suspend/resume) must not stretch or collapse the retry
     schedule — and the loop survives EINTR, spurious wakeups and
     truncated datagrams by re-checking the remaining time.  An
     [Overloaded] reply is consumed (counted on the connection) but the
     wait continues: the attempt then times out naturally and the caller
     backs off before retransmitting, which is exactly the reaction a
     shedding server asks for. *)
  let wait_reply c ~sock ~id ~timeout_us =
    let deadline =
      Int64.add (Monotonic_clock.now ()) (Int64.of_float (timeout_us *. 1.0e3))
    in
    let rec go () =
      let remaining_ns = Int64.sub deadline (Monotonic_clock.now ()) in
      if Int64.compare remaining_ns 0L <= 0 then None
      else begin
        Unix.setsockopt_float sock Unix.SO_RCVTIMEO
          (Float.max 0.001 (Int64.to_float remaining_ns /. 1.0e9));
        match Unix.recvfrom sock c.buf 0 (Bytes.length c.buf) [] with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            go ()
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
            raise Server_dead
        | 0, _ -> go ()
        | len, _ -> (
            match Proto.Fragment.offer c.reassembler (Bytes.sub c.buf 0 len) with
            | Some (msg_id, msg) when msg_id = id -> (
                match Proto.Wire.decode_reply msg with
                | Ok { Proto.Wire.status = Proto.Wire.Overloaded; _ } ->
                    c.sheds <- c.sheds + 1;
                    go ()
                | Ok reply -> Some reply
                | Error _ -> go ())
            | Some _ | None -> go ())
      end
    in
    go ()

  let rpc c op key value =
    c.next_id <- Int64.add c.next_id 1L;
    let id = c.next_id in
    let queue =
      match op with
      | Proto.Wire.Get | Proto.Wire.Scan -> Dsim.Rng.int c.rng c.queues
      | Proto.Wire.Put | Proto.Wire.Delete -> key_queue c key
    in
    let sock = c.socks.(queue) in
    let encoded =
      Proto.Wire.encode_request
        { Proto.Wire.id; op; key; value; client_ts = 0L; target_rx = queue }
    in
    let send ~attempt:_ =
      try
        List.iter
          (fun frag -> ignore (Unix.send sock frag 0 (Bytes.length frag) []))
          (Proto.Fragment.split ~msg_id:id encoded)
      with Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> raise Server_dead
    in
    match
      Proto.Retry.call ~config:c.retry ~rng:c.rng ~budget:c.budget ~send
        ~wait_reply:(fun ~timeout_us -> wait_reply c ~sock ~id ~timeout_us)
        ()
    with
    | Ok reply -> reply
    | Error (`Timed_out _) -> raise Timeout
    | Error (`Budget_exhausted _) -> raise Budget_exhausted

  let get c key =
    let reply = rpc c Proto.Wire.Get key None in
    match reply.Proto.Wire.status with
    | Proto.Wire.Ok -> Some (Option.value ~default:Bytes.empty reply.Proto.Wire.value)
    | Proto.Wire.Not_found | Proto.Wire.Overloaded -> None

  let put c key value =
    let reply = rpc c Proto.Wire.Put key (Some value) in
    match reply.Proto.Wire.status with
    | Proto.Wire.Ok -> ()
    | Proto.Wire.Not_found | Proto.Wire.Overloaded ->
        failwith "Udp.Client.put: unexpected failure status"

  let delete c key =
    match (rpc c Proto.Wire.Delete key None).Proto.Wire.status with
    | Proto.Wire.Ok -> true
    | Proto.Wire.Not_found | Proto.Wire.Overloaded -> false

  let sheds c = c.sheds
end
