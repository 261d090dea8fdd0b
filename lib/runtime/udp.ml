let loopback = Unix.inet_addr_loopback

let max_datagram = Netsim.Frame.max_udp_payload

type pending = { addr : Unix.sockaddr; queue : int; client_ts : int64 }

(* Receive and wait calls that allocate nothing on an empty socket
   (udp_stubs.c).  [recv] returns the datagram's length and stores its
   sender in [from.(0)], or returns -1 when none is waiting. *)
external recv : Unix.file_descr -> bytes -> int -> int -> Unix.sockaddr array -> int
  = "minos_udp_recv"

external wait_readable : Unix.file_descr -> int -> unit = "minos_udp_wait_readable"

(* The socket transport's state, shared by the worker domains.  Queue [q]
   has its socket, receive buffer, fragment reassembler and TX buffer, all
   used by worker [q] only; the pending table and the dedup cache share a
   lock. *)
type conn = {
  sockets : Unix.file_descr array;
  bufs : Bytes.t array;
  from : Unix.sockaddr array array; (* queue -> its last datagram's sender *)
  reassemblers : Proto.Fragment.reassembler array;
  tx : Bytes.t array;
      (* worker [q]'s outgoing message, from offset [Fragment.header_size]
         so its fragments can be framed in place; grown to the largest
         reply the worker has sent, and kept *)
  batch : int;
  pending : (int64, pending) Hashtbl.t; (* request id -> where to reply *)
  dedup : bytes Proto.Dedup.t; (* mutation's request id -> encoded reply *)
  lock : Mutex.t;
}

type t = { server : Server.t; conn : conn; base_port : int; mutable stopped : bool }

(* Worker [q]'s TX buffer, with room for a [size]-byte message. *)
let tx_buf c q size =
  let need = Proto.Fragment.header_size + size in
  if Bytes.length c.tx.(q) < need then c.tx.(q) <- Bytes.create need;
  c.tx.(q)

(* [Server.transport.value_buf]: a GET's value goes straight after the
   reply header in the serving worker's TX buffer. *)
let value_off = Proto.Fragment.header_size + Proto.Wire.reply_header_size

let value_buf c q len = tx_buf c q (Proto.Wire.reply_header_size + len)

(* Send the [total]-byte message in worker [q]'s TX buffer, each fragment
   framed in place.  A datagram the kernel will not take now is dropped,
   as the wire would drop it: the client retransmits. *)
let send_message c q sock addr ~msg_id total =
  let buf = c.tx.(q) in
  for index = 0 to Proto.Fragment.fragments_for total - 1 do
    let len = Proto.Fragment.frame_in_place buf ~msg_id ~total ~index in
    try
      ignore
        (Unix.sendto sock buf (index * Proto.Fragment.max_fragment_payload) len [] addr)
    with Unix.Unix_error _ -> ()
  done

(* Copy an encoded message into worker [q]'s TX buffer and send it. *)
let send_copy c q sock addr ~msg_id encoded =
  let total = Bytes.length encoded in
  Bytes.blit encoded 0 (tx_buf c q total) Proto.Fragment.header_size total;
  send_message c q sock addr ~msg_id total

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

(* The cached reply of a completed request; otherwise [None], once [p]
   is noted as where to reply. *)
let arrive c id p =
  locked c (fun () ->
      let cached = Proto.Dedup.find c.dedup id in
      if Option.is_none cached then Hashtbl.replace c.pending id p;
      cached)

let take_pending c id =
  locked c (fun () ->
      let p = Hashtbl.find_opt c.pending id in
      Hashtbl.remove c.pending id;
      p)

let cache_reply c id encoded =
  locked c (fun () -> fst (Proto.Dedup.execute c.dedup ~id (fun () -> encoded)))

(* [None] for a request whose op lacks its payload: a PUT without a value
   or a SCAN without a valid count. *)
let message_op (req : Proto.Wire.request) =
  match (req.Proto.Wire.op, req.Proto.Wire.value) with
  | Proto.Wire.Get, _ -> Some Message.Get
  | Proto.Wire.Put, Some value -> Some (Message.Put value)
  | Proto.Wire.Delete, _ -> Some Message.Delete
  | Proto.Wire.Scan, Some count ->
      Option.map (fun n -> Message.Scan n) (Proto.Wire.decode_scan_count count)
  | (Proto.Wire.Put | Proto.Wire.Scan), None -> None

(* One decoded datagram: replay a completed request from the dedup cache,
   otherwise note where to reply and admit it to the queue's RX ring.  A
   full ring drops it (the client retransmits). *)
let accept c queue addr ~now admit msg =
  match Proto.Wire.decode_request msg with
  | Error _ -> () (* malformed datagrams are dropped *)
  | Ok req -> (
      match message_op req with
      | None -> () (* so are requests missing their payload *)
      | Some op -> (
          let id = req.Proto.Wire.id in
          match arrive c id { addr; queue; client_ts = req.Proto.Wire.client_ts } with
          | Some encoded -> send_copy c queue c.sockets.(queue) addr ~msg_id:id encoded
          | None ->
              let message =
                {
                  Message.id;
                  op;
                  key = req.Proto.Wire.key;
                  submitted_at = now;
                  obs_slot = -1;
                }
              in
              if not (admit message) then ignore (take_pending c id)))

(* [Server.transport.receive]: drain up to a batch of datagrams from the
   queue's non-blocking socket, reassembling multi-fragment requests.  An
   empty socket costs one [recv] and allocates nothing. *)
let rec receive_batch c queue admit sock buf n now =
  if n >= c.batch then n
  else
    let from = c.from.(queue) in
    let len = recv sock buf 0 (Bytes.length buf) from in
    if len < 0 then n
    else begin
      (* One clock read per batch stamps every request in it. *)
      let now = if n = 0 then Unix.gettimeofday () else now in
      (match Proto.Fragment.offer c.reassemblers.(queue) (Bytes.sub buf 0 len) with
      | None -> ()
      | Some (_, msg) -> accept c queue from.(0) ~now admit msg);
      receive_batch c queue admit sock buf (n + 1) now
    end

let receive c queue admit = receive_batch c queue admit c.sockets.(queue) c.bufs.(queue) 0 0.0

(* Only a mutation's reply is cached: a retransmitted PUT or DELETE is
   replayed, a retransmitted read runs again and returns the current
   value.  Shed replies are not cached either: a retransmission of a shed
   request should re-attempt execution once the overload passes, not
   replay the rejection. *)
let cacheable (req : Message.request) (reply : Message.reply) =
  match (req.Message.op, reply.Message.status) with
  | (Message.Put _ | Message.Put_ttl _ | Message.Delete), (Message.Ok | Message.Not_found)
    ->
      true
  | (Message.Get | Message.Scan _), _ | _, Message.Overloaded -> false

(* [Server.transport.reply], on the serving worker's domain: write the
   reply header in its TX buffer (a GET's value is already behind it) and
   send from the socket the request arrived on — the client's socket is
   connected to that port and accepts nothing else. *)
let reply c (req : Message.request) (reply : Message.reply) =
  let id = req.Message.id in
  match take_pending c id with
  | None -> () (* submitted in-process, or a duplicate already answered *)
  | Some p ->
      let q = reply.Message.served_by in
      let value_len =
        match reply.Message.value with Some _ -> reply.Message.value_size | None -> -1
      in
      let total = Proto.Wire.reply_header_size + max 0 value_len in
      let buf = tx_buf c q total in
      Proto.Wire.write_reply_header buf ~off:Proto.Fragment.header_size ~id
        ~status:
          (match reply.Message.status with
          | Message.Ok -> Proto.Wire.Ok
          | Message.Not_found -> Proto.Wire.Not_found
          | Message.Overloaded -> Proto.Wire.Overloaded)
        ~client_ts:p.client_ts ~value_len;
      let sock = c.sockets.(p.queue) in
      if cacheable req reply then
        (* A copy of this request that ran meanwhile may have cached its
           reply first; every copy then answers with that one. *)
        send_copy c q sock p.addr ~msg_id:id
          (cache_reply c id (Bytes.sub buf Proto.Fragment.header_size total))
      else send_message c q sock p.addr ~msg_id:id total

(* [Server.transport.park]: sleep until a datagram arrives on the
   queue's socket, or [timeout_s] passes. *)
let park c queue timeout_s =
  wait_readable c.sockets.(queue) (int_of_float (timeout_s *. 1.0e6))

let start ?obs ?(config = Server.default_config) ?(base_port = 47700)
    ?(dedup_capacity = 8192) store =
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
  let conn =
    {
      sockets;
      bufs = Array.init cores (fun _ -> Bytes.create (max_datagram + 64));
      from = Array.init cores (fun _ -> [| Unix.ADDR_UNIX "" |]);
      reassemblers = Array.init cores (fun _ -> Proto.Fragment.create_reassembler ());
      tx = Array.init cores (fun _ -> Bytes.create max_datagram);
      batch = config.Server.batch;
      pending = Hashtbl.create 256;
      dedup = Proto.Dedup.create ~capacity:dedup_capacity ();
      lock = Mutex.create ();
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
