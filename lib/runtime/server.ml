let log_src = Logs.Src.create "minos.runtime" ~doc:"Native Minos server"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  cores : int;
  design : Kvserver.Design.t;
  epoch_s : float;
  shed_watermark : int option;
  clamp_threshold : float option;
  fault : Fault.Inject.t option;
}

let max_cores () = max 2 (Domain.recommended_domain_count ())

let default_config =
  {
    cores = min 4 (max_cores ());
    design = Kvserver.Design.minos;
    epoch_s = 0.05;
    shed_watermark = None;
    clamp_threshold = None;
    fault = None;
  }

(* The Minos policy the simulator runs: the poll batch, the histogram
   smoothing, the threshold percentile and the cost function. *)
let policy = Kvserver.Config.default

let batch = policy.Kvserver.Config.batch

let ring_capacity = 4096

(* An idle worker's [transport.park] timeout. *)
let idle_backoff_s = 0.0002

exception Oversubscribed of { cores : int; limit : int }
exception Unsupported_design of { design : string }

(* The one place that decides which registry designs run natively: Minos'
   size-aware pools, or HKH, where every core serves its own ring. *)
let size_aware design =
  if Kvserver.Design.(equal design minos) then true
  else if Kvserver.Design.(equal design hkh) then false
  else raise (Unsupported_design { design = Kvserver.Design.name design })

type transport = {
  receive : int -> (Message.request -> bool) -> int;
  value_buf : int -> int -> bytes;
  value_off : int;
  reply : int -> Message.request -> Message.status -> bytes option -> int -> unit;
  park : int -> float -> unit;
}

type worker = {
  id : int;
  rx : Message.request Netsim.Ring.t;
  swq : Message.request Netsim.Ring.t;
  hist : Stats.Log_histogram.t Atomic.t;
  accepted : int Atomic.t; (* submissions this RX ring took in *)
  served : int Atomic.t;
  busy_ns : int Atomic.t;
      (* cumulative busy time, only maintained while a timeline samples *)
  polled : Message.request array;
      (* this iteration's drained requests: software queue first, then own
         RX, then the shares of the large cores' RX rings *)
  mutable n_queued : int; (* how many of [polled] came from [swq] *)
  mutable n_polled : int;
  mutable n_done : int;
      (* of [polled], how many this worker no longer holds: answered (and
         counted) or handed to another core.  A worker that dies holds
         [n_polled - n_done] requests, which are lost with it. *)
  failure : string option Atomic.t; (* the exception that killed it *)
  value_dst : int -> bytes;
      (* [transport.value_buf] for this worker, noting in [value] the
         buffer it hands out *)
  mutable value : bytes; (* where the last GET's value was copied *)
  mutable some_value : bytes option;
      (* [Some value], made when [value] changes: a transport that keeps
         its buffer gets no [Some] per reply *)
  mutable spare : Stats.Log_histogram.t;
      (* swapped for [hist] by the control loop, which empties the one it
         takes and keeps it as the next spare *)
}

type t = {
  cfg : config;
  size_aware : bool;
  store : Kvstore.Store.t;
  workers : worker array;
  transport : transport;
  poll : unit -> Message.reply option;
  plan : Kvserver.Control.plan Atomic.t;
  handoffs : int Atomic.t;
  epochs : int Atomic.t;
  shed_small : int Atomic.t;
  shed_large : int Atomic.t;
  rx_rejected : int Atomic.t;
  ctrl_stale : int Atomic.t;
  worker_failed : int Atomic.t; (* requests lost with a dead worker *)
  no_memory : int Atomic.t; (* PUTs the value arena could not hold *)
  (* Fault-clock outputs, sampled ~1 ms by a dedicated thread so workers
     read plain atomics instead of scanning the plan's windows. *)
  stall_us : int Atomic.t array; (* per-core extra sleep per iteration *)
  rx_cap : int Atomic.t array; (* per-core effective RX admission cap *)
  ctrl_delayed : bool Atomic.t;
  started_ns : int64; (* monotonic origin of the fault-plan clock *)
  corrupt : float -> float; (* built once, not per control tick *)
  epoch : Kvserver.Control.Epoch.t; (* touched by worker 0 only *)
  merged : Stats.Log_histogram.t; (* the control loop's, emptied each tick *)
  in_flight : int Atomic.t;
  accepting : bool Atomic.t;
  stop_flag : bool Atomic.t;
  mutable domains : unit Domain.t list;
  mutable stopped : bool;
  obs : Obs.Instrument.t option;
}

(* ------------------------------------------------------------------ *)
(* Flight-recorder hooks.  The simulator samples from an RNG stream in
   arrival order; here requests race in from many domains, so sampling
   hashes the request id instead ([Recorder.try_sample_id]) — equally
   deterministic for a fixed id sequence.  Every hook is a conditional
   store into preallocated arrays; none allocates. *)

let now_us () = Unix.gettimeofday () *. 1.0e6

let obs_mark t field (req : Message.request) =
  if req.Message.obs_slot >= 0 then
    match t.obs with
    | None -> ()
    | Some o ->
        Obs.Recorder.set_ts o.Obs.Instrument.recorder req.Message.obs_slot field
          (now_us ())

let obs_meta t field (req : Message.request) v =
  if req.Message.obs_slot >= 0 then
    match t.obs with
    | None -> ()
    | Some o -> Obs.Recorder.set_meta o.Obs.Instrument.recorder req.Message.obs_slot field v

let obs_sample_submit t (req : Message.request) ~ring_idx =
  match t.obs with
  | None -> ()
  | Some o ->
      let r = o.Obs.Instrument.recorder in
      let slot = Obs.Recorder.try_sample_id r ~id:(Int64.to_int req.Message.id) in
      if slot >= 0 then begin
        req.Message.obs_slot <- slot;
        Obs.Recorder.set_ts r slot Obs.Span.ts_rx_enq (now_us ());
        Obs.Recorder.set_meta r slot Obs.Span.meta_seq (Int64.to_int req.Message.id);
        Obs.Recorder.set_meta r slot Obs.Span.meta_rx_queue ring_idx;
        (* Class and size are unknown until the server looks the item up;
           [classify_and_serve] refines both. *)
        Obs.Recorder.set_meta r slot Obs.Span.meta_class Obs.Span.class_small;
        Obs.Recorder.set_meta r slot Obs.Span.meta_op
          (match req.Message.op with
          | Message.Get -> Obs.Span.op_get
          | Message.Scan _ -> Obs.Span.op_scan
          | Message.Put _ | Message.Delete -> Obs.Span.op_put);
        Obs.Recorder.set_meta r slot Obs.Span.meta_size
          (match req.Message.op with
          | Message.Put v -> Bytes.length v
          | Message.Get | Message.Delete | Message.Scan _ -> 0)
      end

(* Stateless uniform spreading for GET dispatch: mix the request id so any
   domain can dispatch without a shared RNG. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 29)) 0xC4CEB9FE1A85EC53L) in
  Int64.(logxor z (shift_right_logical z 32))

let key_master t key =
  Kvstore.Keyhash.partition_of (Kvstore.Keyhash.hash key) ~bits:30 mod t.cfg.cores

let dispatch_ring t (req : Message.request) =
  match req.Message.op with
  | Message.Get | Message.Scan _ ->
      Int64.to_int (Int64.rem (mix64 req.Message.id) (Int64.of_int t.cfg.cores)) |> abs
  | Message.Put _ | Message.Delete -> key_master t req.Message.key

(* Admit one request to a worker's RX ring: what a NIC queue does with an
   arriving packet.  [in_flight] rises before the push, so no worker can
   answer the request before it is counted. *)
let enqueue t (w : worker) req =
  if not (Atomic.get t.accepting) then false
  else if
    (* A ring-capacity squeeze lowers the effective RX depth below the
       ring's physical capacity; beyond it the "NIC" tail-drops. *)
    Netsim.Ring.length w.rx >= Atomic.get t.rx_cap.(w.id)
  then begin
    Atomic.incr t.rx_rejected;
    false
  end
  else begin
    obs_sample_submit t req ~ring_idx:w.id;
    Atomic.incr t.in_flight;
    if Netsim.Ring.try_push w.rx req then begin
      Atomic.incr w.accepted;
      true
    end
    else begin
      Atomic.decr t.in_flight;
      Atomic.incr t.rx_rejected;
      false
    end
  end

let submit t req = enqueue t t.workers.(dispatch_ring t req) req

let store_of t = t.store

let poll_reply t = t.poll ()

(* The in-process transport: [submit] fills the RX rings, replies go to
   one shared ring that [poll_reply] drains.  A GET's value is copied into
   a fresh buffer of its exact length, which the client then owns.  A
   reply is stamped when it is sent, and never waits for a slow client:
   past the ring's capacity it spills into an unbounded overflow queue. *)
let in_process () =
  let replies = Netsim.Ring.create ~capacity:65536 in
  let overflow = Queue.create () and lock = Mutex.create () in
  let reply q (req : Message.request) status value value_size =
    let r =
      {
        Message.request_id = req.Message.id;
        status;
        value;
        value_size;
        served_by = q;
        completed_at = Unix.gettimeofday ();
      }
    in
    if not (Netsim.Ring.try_push replies r) then begin
      Mutex.lock lock;
      Queue.add r overflow;
      Mutex.unlock lock
    end
  in
  let poll () =
    match Netsim.Ring.try_pop replies with
    | Some _ as r -> r
    | None ->
        Mutex.lock lock;
        let r = Queue.take_opt overflow in
        Mutex.unlock lock;
        r
  in
  ( {
      receive = (fun _ _ -> 0);
      value_buf = (fun _ len -> Bytes.create len);
      value_off = 0;
      reply;
      park = (fun _ s -> Unix.sleepf s);
    },
    poll )

(* ------------------------------------------------------------------ *)
(* The scheduling step: drain the rings into [polled], route each
   classified request.  Neither function touches the store or the wire,
   and both are zero-allocation roots of [dune build @analyze]. *)

let rec pull ring (polled : Message.request array) n limit =
  if n >= limit then n
  else
    match Netsim.Ring.pop_exn ring with
    | req ->
        polled.(n) <- req;
        pull ring polled (n + 1) limit
    | exception Netsim.Ring.Empty -> n

(* Fill [w.polled] for one iteration and return how many it holds.  A
   small core takes its software queue (standby large duty), its own RX
   and a fair share of every large core's RX; a large core only its
   software queue.  Under HKH the plan stays {!Kvserver.Control.initial}
   (nothing is classified), so every core only reads its own RX. *)
let drain t (w : worker) plan =
  let queued = pull w.swq w.polled 0 batch in
  w.n_queued <- queued;
  if Kvserver.Control.is_small_core plan w.id then begin
    let n_small = plan.Kvserver.Control.n_small in
    let share = Kvserver.Control.fair_share ~batch ~readers:n_small in
    let n = ref (pull w.rx w.polled queued (queued + batch)) in
    for i = n_small to t.cfg.cores - 1 do
      n := pull t.workers.(i).rx w.polled !n (!n + share)
    done;
    !n
  end
  else queued

(* Top-level recursion: a local [let rec] would allocate per decision. *)
let rec rx_backlog (workers : worker array) i acc =
  if i >= Array.length workers then acc
  else rx_backlog workers (i + 1) (acc + Netsim.Ring.length workers.(i).rx)

(* {!Kvserver.Control.shed} over the total RX backlog, as the simulator
   applies it.  A shed request is answered [Overloaded]: the client backs
   off and in-flight accounting stays exact. *)
let try_shed t ~large =
  match t.cfg.shed_watermark with
  | None -> false
  | Some watermark ->
      Kvserver.Control.shed ~watermark ~backlog:(rx_backlog t.workers 0 0) ~large
      && begin
           Atomic.incr (if large then t.shed_large else t.shed_small);
           true
         end

type route = Small | Large_here | Handed_off | Shed

(* Decide where a classified request runs, recording its size for the
   control loop; a handoff happens here. *)
let route t (w : worker) plan (req : Message.request) size =
  Stats.Log_histogram.record_int (Atomic.get w.hist) size;
  let j = Kvserver.Control.route_idx_int plan size in
  if j < 0 then if try_shed t ~large:false then Shed else Small
  else if try_shed t ~large:true then Shed
  else begin
    let target = t.workers.(Kvserver.Control.large_core_id plan ~cores:t.cfg.cores j) in
    if target.id = w.id then Large_here
    else if Netsim.Ring.try_push target.swq req then begin
      Atomic.incr t.handoffs;
      w.n_done <- w.n_done + 1;
      Handed_off
    end
    else
      (* Software queue full: serve in place rather than block or drop —
         backpressure degrades to size-unaware behaviour momentarily. *)
      Large_here
  end

(* ------------------------------------------------------------------ *)
(* Request execution on a worker. *)

(* The request leaves this worker's hands: it is counted (by the caller,
   in [served] or a shed leg) and [in_flight] drops before the reply is
   sent, so a client holding the reply always finds it in [stats]. *)
let answer t (w : worker) (req : Message.request) status value value_size =
  Atomic.decr t.in_flight;
  w.n_done <- w.n_done + 1;
  t.transport.reply w.id req status value value_size

let served t (w : worker) (req : Message.request) status value value_size =
  obs_mark t Obs.Span.ts_service_end req;
  Atomic.incr w.served;
  answer t w req status value value_size;
  obs_mark t Obs.Span.ts_tx_done req;
  obs_mark t Obs.Span.ts_end req

let scan_bytes t (req : Message.request) count =
  let total = ref 0 in
  let visited =
    Kvstore.Store.scan t.store ~start:req.Message.key ~count (fun _ len ->
        total := !total + len)
  in
  (visited, !total)

(* A PUT the value arena cannot hold is refused, not fatal: a client may
   send a value of any size, and it must not kill the worker. *)
let store_value t w (req : Message.request) value =
  match Kvstore.Store.put t.store ~guard:`Lock req.Message.key value with
  | () -> served t w req Message.Ok None (Bytes.length value)
  | exception Kvstore.Slab.Out_of_memory _ ->
      Atomic.incr t.no_memory;
      answer t w req Message.Overloaded None 0

(* The one copy of the value: from the slab to where the transport wants
   it. *)
let serve_get t (w : worker) (req : Message.request) =
  let len =
    Kvstore.Store.read_into t.store req.Message.key ~buf:w.value_dst
      ~off:t.transport.value_off
  in
  if len >= 0 then served t w req Message.Ok w.some_value len
  else served t w req Message.Not_found None 0

(* Every native write takes the partition lock.  CREW's lock-free master
   write is only sound when the master is the key's only writer, and here
   it is not: a large PUT runs on the large core it was handed to, and
   small cores serve the PUTs they poll from large cores' RX rings.  The
   writes and SCANs build their results, so only the GET is on the
   allocation-free path. *)
let[@cold] serve_other t (w : worker) (req : Message.request) =
  match req.Message.op with
  | Message.Get -> serve_get t w req
  | Message.Put value -> store_value t w req value
  | Message.Scan count ->
      let visited, total = scan_bytes t req count in
      served t w req (if visited > 0 then Message.Ok else Message.Not_found) None total
  | Message.Delete ->
      let existed = Kvstore.Store.delete t.store ~guard:`Lock req.Message.key in
      served t w req (if existed then Message.Ok else Message.Not_found) None 0

let serve t (w : worker) (req : Message.request) =
  obs_mark t Obs.Span.ts_service_start req;
  obs_meta t Obs.Span.meta_core req w.id;
  obs_meta t Obs.Span.meta_tx_queue req w.id;
  match req.Message.op with
  | Message.Get -> serve_get t w req
  | Message.Put _ | Message.Scan _ | Message.Delete -> serve_other t w req

(* The size-aware classifier needs a SCAN's total bytes: the same ordered
   walk the serve path performs, which builds its result. *)
let[@cold] scan_size t (req : Message.request) count = snd (scan_bytes t req count)

(* Size of the item a request touches: the stored size for GETs (the
   lookup the paper's small cores perform), the carried size for PUTs. *)
let request_item_size t (req : Message.request) =
  match req.Message.op with
  | Message.Get -> max 0 (Kvstore.Store.length t.store req.Message.key) (* absent: -1 *)
  | Message.Put value -> Bytes.length value
  | Message.Delete -> 0 (* always "small": frees, never copies *)
  | Message.Scan count -> scan_size t req count

let classify_and_serve t (w : worker) plan req =
  let item_size = request_item_size t req in
  obs_mark t Obs.Span.ts_classify req;
  obs_meta t Obs.Span.meta_size req item_size;
  match route t w plan req item_size with
  | Small -> serve t w req
  | Shed -> answer t w req Message.Overloaded None 0
  | Large_here ->
      obs_meta t Obs.Span.meta_class req Obs.Span.class_large;
      serve t w req
  | Handed_off ->
      obs_meta t Obs.Span.meta_class req Obs.Span.class_large;
      obs_mark t Obs.Span.ts_handoff_enq req

let serve_polled t (w : worker) plan =
  for i = 0 to w.n_polled - 1 do
    let req = w.polled.(i) in
    if i < w.n_queued then begin
      obs_mark t Obs.Span.ts_handoff_deq req;
      serve t w req
    end
    else begin
      obs_mark t Obs.Span.ts_poll req;
      if t.size_aware then classify_and_serve t w plan req else serve t w req
    end
  done

(* ------------------------------------------------------------------ *)
(* Control loop: run by core 0 between batches (as in the paper). *)

let fault_now_us t =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t.started_ns) /. 1.0e3

(* The threshold a fault plan may corrupt, as [t.corrupt] applies it. *)
let corrupt fault started_ns threshold =
  match fault with
  | None -> threshold
  | Some f ->
      let now = Int64.to_float (Int64.sub (Monotonic_clock.now ()) started_ns) /. 1.0e3 in
      Fault.Inject.corrupt_threshold f ~now threshold


(* The executor's half of a control tick: drain every worker's histogram
   (a stale tick discards them), install the plan {!Kvserver.Control.Epoch}
   derives, and log one decision per tick, as the simulator does. *)
(* Top-level recursion: a closure over [merged] would be one more
   allocation per tick.  A worker's late [record] into the histogram just
   taken lands in the emptied spare, and so in a later tick. *)
let rec drain_histograms (workers : worker array) merged i =
  if i < Array.length workers then begin
    let w = workers.(i) in
    let drained = Atomic.exchange w.hist w.spare in
    Stats.Log_histogram.merge_into ~dst:merged drained;
    Stats.Log_histogram.reset drained;
    w.spare <- drained;
    drain_histograms workers merged (i + 1)
  end

let controller_tick t =
  Stats.Log_histogram.reset t.merged;
  drain_histograms t.workers t.merged 0;
  let stale = Atomic.get t.ctrl_delayed in
  if stale then Atomic.incr t.ctrl_stale;
  (match
     Kvserver.Control.Epoch.step t.epoch ~cores:t.cfg.cores ~stale ~force:false
       ~corrupt:t.corrupt t.merged
   with
  | None -> ()
  | Some plan ->
      let old = Atomic.exchange t.plan plan in
      let open Kvserver.Control in
      let moved = abs_float (old.threshold -. plan.threshold) > 0.05 *. plan.threshold in
      if moved || old.n_large <> plan.n_large then
        Log.info (fun m ->
            m "epoch %d: threshold %.0fB, %d small + %d large cores"
              (Atomic.get t.epochs + 1) plan.threshold plan.n_small plan.n_large));
  (* Only worker 0 runs the controller, so the log needs no lock. *)
  (match t.obs with
  | None -> ()
  | Some o ->
      let { Kvserver.Control.threshold; n_small; n_large; _ } = Atomic.get t.plan in
      Obs.Decision_log.record o.Obs.Instrument.decisions
        ~lost:(Atomic.get t.rx_rejected + Atomic.get t.shed_small + Atomic.get t.shed_large)
        ~now:(now_us ()) ~threshold ~n_small ~n_large ());
  Atomic.incr t.epochs

let timeline_tick t tl ~now =
  let s = Obs.Timeline.start_sample tl ~now:(now *. 1.0e6) in
  if s >= 0 then
    Array.iter
      (fun (w : worker) ->
        Obs.Timeline.set_core tl ~sample:s ~core:w.id
          ~depth:(Netsim.Ring.length w.rx)
          ~busy_us:(float_of_int (Atomic.get w.busy_ns) /. 1.0e3))
      t.workers

(* One worker is the whole data plane of its queue: receive what arrived,
   drain the rings, classify, serve and reply, all on this domain. *)
let worker_loop t (w : worker) =
  let last_epoch = ref (Unix.gettimeofday ()) in
  let last_tl = ref !last_epoch in
  let idle_streak = ref 0 in
  let admit = enqueue t w in
  (* Busy accounting (per-iteration clock reads) only when a timeline is
     attached; the uninstrumented loop reads the clock only on worker 0,
     once per iteration, for the epoch check. *)
  let tl =
    match t.obs with
    | Some { Obs.Instrument.timeline = Some tl; _ } -> Some tl
    | Some _ | None -> None
  in
  while not (Atomic.get t.stop_flag) do
    let iter_start =
      match tl with Some _ -> Unix.gettimeofday () | None -> 0.0
    in
    let received = t.transport.receive w.id admit in
    let plan = Atomic.get t.plan in
    w.n_done <- 0;
    w.n_polled <- drain t w plan;
    if w.n_polled > 0 then serve_polled t w plan;
    let handled = received + w.n_polled in
    (match tl with
    | Some tl ->
        let now = Unix.gettimeofday () in
        if handled > 0 then
          ignore
            (Atomic.fetch_and_add w.busy_ns
               (int_of_float ((now -. iter_start) *. 1.0e9)));
        if w.id = 0 && now -. !last_tl >= Obs.Timeline.interval_us tl /. 1.0e6
        then begin
          last_tl := now;
          timeline_tick t tl ~now
        end
    | None -> ());
    if w.id = 0 then begin
      let now = Unix.gettimeofday () in
      if now -. !last_epoch >= t.cfg.epoch_s then begin
        last_epoch := now;
        controller_tick t
      end
    end;
    let stall = Atomic.get t.stall_us.(w.id) in
    if stall > 0 then Unix.sleepf (float_of_int stall /. 1.0e6);
    if handled = 0 then begin
      incr idle_streak;
      if !idle_streak > 64 then begin
        idle_streak := 0;
        t.transport.park w.id idle_backoff_s
      end
      else Domain.cpu_relax ()
    end
    else idle_streak := 0
  done

(* The domain boundary: an exception that escapes the loop kills only this
   worker.  The requests it held are moved from [in_flight] to the
   [worker_failed] leg, and the failure is published for [stats] and
   [stop]. *)
let worker_main t (w : worker) =
  try worker_loop t w
  with e ->
    let lost = w.n_polled - w.n_done in
    ignore (Atomic.fetch_and_add t.worker_failed lost);
    ignore (Atomic.fetch_and_add t.in_flight (-lost));
    Atomic.set w.failure (Some (Printexc.to_string e));
    Log.err (fun m -> m "worker %d died: %s" w.id (Printexc.to_string e))

(* Nobody serves a dead worker's rings: [stop] empties them into the
   [worker_failed] leg. *)
let reclaim t (w : worker) =
  let rec empty ring =
    match Netsim.Ring.pop_exn ring with
    | (_ : Message.request) ->
        Atomic.incr t.worker_failed;
        Atomic.decr t.in_flight;
        empty ring
    | exception Netsim.Ring.Empty -> ()
  in
  empty w.rx;
  empty w.swq

(* ------------------------------------------------------------------ *)

(* The fault clock: one posix thread re-samples the plan's windows every
   millisecond into plain atomics.  Workers pay one atomic load per
   iteration whether or not a plan is loaded; all window scanning happens
   here, off the data path.  A slowdown factor f becomes an extra
   (f - 1) x 100 us sleep per scheduling iteration (capped at 5 ms), a
   serviceable stand-in for a core running f times slower. *)
let fault_sample t f =
  let now = fault_now_us t in
  for c = 0 to t.cfg.cores - 1 do
    let factor = Fault.Inject.slowdown f ~core:c ~now in
    let stall =
      if factor > 1.0 then int_of_float (Float.min 5000.0 ((factor -. 1.0) *. 100.0))
      else 0
    in
    Atomic.set t.stall_us.(c) stall;
    Atomic.set t.rx_cap.(c)
      (min ring_capacity (Fault.Inject.rx_capacity f ~queue:c ~now))
  done;
  Atomic.set t.ctrl_delayed (Fault.Inject.ctrl_delayed f ~now)

let fault_clock_loop t f =
  while not (Atomic.get t.stop_flag) do
    Thread.delay 0.001;
    fault_sample t f
  done

let start ?obs ?(config = default_config) ?transport store =
  if config.cores < 2 then invalid_arg "Server.start: need at least 2 cores";
  if config.cores > max_cores () then
    raise (Oversubscribed { cores = config.cores; limit = max_cores () });
  let size_aware = size_aware config.design in
  let started_ns = Monotonic_clock.now () in
  let transport, poll =
    match transport with Some tr -> (tr, fun () -> None) | None -> in_process ()
  in
  let placeholder =
    { Message.id = -1L; op = Message.Get; key = ""; submitted_at = 0.0; obs_slot = -1 }
  in
  let t =
    {
      cfg = config;
      size_aware;
      store;
      workers =
        Array.init config.cores (fun id ->
            let rec w =
              {
                id;
                rx = Netsim.Ring.create ~capacity:ring_capacity;
                swq = Netsim.Ring.create ~capacity:ring_capacity;
                hist = Atomic.make (Kvserver.Control.size_histogram ());
                accepted = Atomic.make 0;
                served = Atomic.make 0;
                busy_ns = Atomic.make 0;
                (* software queue + own RX + a share of each other ring *)
                polled = Array.make (batch * (config.cores + 2)) placeholder;
                n_queued = 0;
                n_polled = 0;
                n_done = 0;
                failure = Atomic.make None;
                value_dst =
                  (fun len ->
                    let b = transport.value_buf id len in
                    if b != w.value then begin
                      w.value <- b;
                      w.some_value <- Some b
                    end;
                    b);
                value = Bytes.empty;
                some_value = None;
                spare = Kvserver.Control.size_histogram ();
              }
            in
            w);
      transport;
      poll;
      plan = Atomic.make (Kvserver.Control.initial ~cores:config.cores);
      handoffs = Atomic.make 0;
      epochs = Atomic.make 0;
      shed_small = Atomic.make 0;
      shed_large = Atomic.make 0;
      rx_rejected = Atomic.make 0;
      ctrl_stale = Atomic.make 0;
      worker_failed = Atomic.make 0;
      no_memory = Atomic.make 0;
      stall_us = Array.init config.cores (fun _ -> Atomic.make 0);
      rx_cap = Array.init config.cores (fun _ -> Atomic.make ring_capacity);
      ctrl_delayed = Atomic.make false;
      started_ns;
      corrupt = corrupt config.fault started_ns;
      epoch =
        Kvserver.Control.Epoch.create ?clamp:config.clamp_threshold
          ~alpha:policy.Kvserver.Config.alpha ~percentile:policy.Kvserver.Config.percentile
          ~cost_fn:policy.Kvserver.Config.cost_fn ();
      merged = Kvserver.Control.size_histogram ();
      in_flight = Atomic.make 0;
      accepting = Atomic.make true;
      stop_flag = Atomic.make false;
      domains = [];
      stopped = false;
      obs;
    }
  in
  Log.info (fun m ->
      m "starting: %d worker domains, batch %d, %s" config.cores batch
        (Kvserver.Design.name config.design));
  (* The first sample precedes the workers, so a window open at time 0
     holds from their first iteration. *)
  Option.iter (fault_sample t) config.fault;
  t.domains <-
    List.init config.cores (fun i ->
        Domain.spawn (fun () -> worker_main t t.workers.(i)));
  (match config.fault with
  | Some f -> ignore (Thread.create (fun () -> fault_clock_loop t f) ())
  | None -> ());
  t

type stats = {
  served : int array;
  handoffs : int;
  threshold : float;
  n_small : int;
  n_large : int;
  epochs : int;
  shed_small : int;
  shed_large : int;
  rx_rejected : int;
  no_memory : int;
  ctrl_stale : int;
  failures : (int * string) list;
  ledger : Obs.Ledger.t;
}

let stats (t : t) =
  let plan = Atomic.get t.plan in
  let count f = Array.fold_left (fun acc (w : worker) -> acc + Atomic.get (f w)) 0 t.workers in
  let shed_small = Atomic.get t.shed_small and shed_large = Atomic.get t.shed_large in
  let rx_rejected = Atomic.get t.rx_rejected and no_memory = Atomic.get t.no_memory in
  {
    served = Array.map (fun (w : worker) -> Atomic.get w.served) t.workers;
    handoffs = Atomic.get t.handoffs;
    threshold = plan.Kvserver.Control.threshold;
    n_small = plan.Kvserver.Control.n_small;
    n_large = plan.Kvserver.Control.n_large;
    epochs = Atomic.get t.epochs;
    shed_small;
    shed_large;
    rx_rejected;
    no_memory;
    ctrl_stale = Atomic.get t.ctrl_stale;
    failures =
      Array.to_list t.workers
      |> List.filter_map (fun (w : worker) ->
             Option.map (fun e -> (w.id, e)) (Atomic.get w.failure));
    ledger =
      Obs.Ledger.make ~issued:(count (fun w -> w.accepted) + rx_rejected)
        [
          ("served", count (fun w -> w.served));
          ("shed_small", shed_small);
          ("shed_large", shed_large);
          ("rx_rejected", rx_rejected);
          ("no_memory", no_memory);
          ("worker_failed", Atomic.get t.worker_failed);
          ("in_flight", Atomic.get t.in_flight);
        ];
  }

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.accepting false;
    (* Drain: wait until every accepted request has been answered, or
       written off with a dead worker. *)
    while Atomic.get t.in_flight > 0 do
      Array.iter
        (fun (w : worker) -> if Atomic.get w.failure <> None then reclaim t w)
        t.workers;
      Unix.sleepf 0.0001
    done;
    Atomic.set t.stop_flag true;
    List.iter Domain.join t.domains;
    t.domains <- [];
    Log.info (fun m ->
        m "stopped: %d requests served, %d handoffs"
          (Array.fold_left (fun acc (w : worker) -> acc + Atomic.get w.served) 0 t.workers)
          (Atomic.get t.handoffs))
  end
