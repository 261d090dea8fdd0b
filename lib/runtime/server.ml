let log_src = Logs.Src.create "minos.runtime" ~doc:"Native Minos server"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = Size_aware | Keyhash

type config = {
  cores : int;
  batch : int;
  epoch_s : float;
  alpha : float;
  percentile : float;
  cost_fn : Kvserver.Cost_model.cost_fn;
  mode : mode;
  ring_capacity : int;
  idle_backoff_s : float;
  shed_watermark : int option;
  clamp_threshold : float option;
  expiry_sweep_s : float;
  fault : Fault.Inject.t option;
}

let default_config =
  {
    cores = 4;
    batch = 32;
    epoch_s = 0.05;
    alpha = 0.9;
    percentile = 0.99;
    cost_fn = Kvserver.Cost_model.Packets;
    mode = Size_aware;
    ring_capacity = 4096;
    idle_backoff_s = 0.0002;
    shed_watermark = None;
    clamp_threshold = None;
    expiry_sweep_s = 0.0;
    fault = None;
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
}

type t = {
  cfg : config;
  store : Kvstore.Store.t;
  workers : worker array;
  replies : Message.reply Netsim.Ring.t;
  stash : Message.reply Queue.t; (* replies drained during stop *)
  stash_lock : Mutex.t;
  plan : Kvserver.Control.plan Atomic.t;
  handoffs : int Atomic.t;
  epochs : int Atomic.t;
  shed_small : int Atomic.t;
  shed_large : int Atomic.t;
  rx_rejected : int Atomic.t;
  ctrl_stale : int Atomic.t;
  (* Fault-clock outputs, sampled ~1 ms by a dedicated thread so workers
     read plain atomics instead of scanning the plan's windows. *)
  stall_us : int Atomic.t array; (* per-core extra sleep per iteration *)
  rx_cap : int Atomic.t array; (* per-core effective RX admission cap *)
  ctrl_delayed : bool Atomic.t;
  started_ns : int64; (* monotonic origin of the fault-plan clock *)
  mutable last_good_threshold : float;
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
          | Message.Put _ | Message.Put_ttl _ | Message.Delete -> Obs.Span.op_put);
        Obs.Recorder.set_meta r slot Obs.Span.meta_size
          (match req.Message.op with
          | Message.Put v | Message.Put_ttl (v, _) -> Bytes.length v
          | Message.Get | Message.Delete | Message.Scan _ -> 0)
      end

let fresh_hist () =
  Stats.Log_histogram.create ~buckets_per_decade:32 ~min_value:1.0 ~max_value:2.0e6 ()

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
  | Message.Put _ | Message.Put_ttl _ | Message.Delete -> key_master t req.Message.key

let submit t req =
  if not (Atomic.get t.accepting) then false
  else begin
    let ring_idx = dispatch_ring t req in
    (* A ring-capacity squeeze lowers the effective RX depth below the
       ring's physical capacity; beyond it the "NIC" tail-drops. *)
    if Netsim.Ring.length t.workers.(ring_idx).rx >= Atomic.get t.rx_cap.(ring_idx)
    then begin
      Atomic.incr t.rx_rejected;
      false
    end
    else begin
      obs_sample_submit t req ~ring_idx;
      if Netsim.Ring.try_push t.workers.(ring_idx).rx req then begin
        Atomic.incr t.workers.(ring_idx).accepted;
        Atomic.incr t.in_flight;
        true
      end
      else begin
        Atomic.incr t.rx_rejected;
        false
      end
    end
  end

let store_of t = t.store

let poll_reply t =
  match Netsim.Ring.try_pop t.replies with
  | Some _ as r -> r
  | None ->
      Mutex.lock t.stash_lock;
      let r = Queue.take_opt t.stash in
      Mutex.unlock t.stash_lock;
      r

(* ------------------------------------------------------------------ *)
(* Request execution on a worker *)

let push_reply t reply =
  (* Spin with backoff: the ring is large and clients are expected to
     drain; during [stop] the stopping thread drains for them. *)
  while not (Netsim.Ring.try_push t.replies reply) do
    Domain.cpu_relax ()
  done;
  Atomic.decr t.in_flight

let serve t (w : worker) (req : Message.request) =
  obs_mark t Obs.Span.ts_service_start req;
  (if req.Message.obs_slot >= 0 then
     match t.obs with
     | None -> ()
     | Some o ->
         let r = o.Obs.Instrument.recorder in
         Obs.Recorder.set_meta r req.Message.obs_slot Obs.Span.meta_core w.id;
         Obs.Recorder.set_meta r req.Message.obs_slot Obs.Span.meta_tx_queue w.id);
  let reply_with status value value_size =
    obs_mark t Obs.Span.ts_service_end req;
    push_reply t
      {
        Message.request_id = req.Message.id;
        status;
        value;
        value_size;
        served_by = w.id;
        completed_at = Unix.gettimeofday ();
      };
    (* The reply sits on the ring until the client drains it; its push is
       the closest native analogue of the reply leaving the wire. *)
    obs_mark t Obs.Span.ts_tx_done req;
    obs_mark t Obs.Span.ts_end req
  in
  (match req.Message.op with
  | Message.Get -> (
      let now = Unix.gettimeofday () in
      match Kvstore.Store.get ~now t.store req.Message.key with
      | Some value -> reply_with Message.Ok (Some value) (Bytes.length value)
      | None ->
          (* Lazy expiry: a miss may be a lapsed slot; reclaim it now so
             memory is not held until the background sweep passes. *)
          let master = key_master t req.Message.key in
          let guard = if master = w.id then `Crew else `Lock in
          ignore (Kvstore.Store.expire t.store ~guard ~now req.Message.key);
          reply_with Message.Not_found None 0)
  | Message.Put value ->
      let master = key_master t req.Message.key in
      (* CREW: the master core writes lock-free; anyone else locks. *)
      let guard = if master = w.id then `Crew else `Lock in
      Kvstore.Store.put t.store ~guard req.Message.key value;
      reply_with Message.Ok None (Bytes.length value)
  | Message.Put_ttl (value, ttl_s) ->
      let master = key_master t req.Message.key in
      let guard = if master = w.id then `Crew else `Lock in
      Kvstore.Store.put
        ~expires_at:(Unix.gettimeofday () +. ttl_s)
        t.store ~guard req.Message.key value;
      reply_with Message.Ok None (Bytes.length value)
  | Message.Scan count ->
      let now = Unix.gettimeofday () in
      let total = ref 0 in
      let visited =
        Kvstore.Store.scan ~now t.store ~start:req.Message.key ~count (fun _ len ->
            total := !total + len)
      in
      reply_with
        (if visited > 0 then Message.Ok else Message.Not_found)
        None !total
  | Message.Delete ->
      let master = key_master t req.Message.key in
      let guard = if master = w.id then `Crew else `Lock in
      let existed = Kvstore.Store.delete t.store ~guard req.Message.key in
      reply_with (if existed then Message.Ok else Message.Not_found) None 0);
  Atomic.incr w.served

(* Size of the item a request touches: the stored size for GETs (the
   lookup the paper's small cores perform), the carried size for PUTs. *)
let request_item_size t (req : Message.request) =
  match req.Message.op with
  | Message.Put value | Message.Put_ttl (value, _) -> Bytes.length value
  | Message.Delete -> 0 (* always "small": frees, never copies *)
  | Message.Get ->
      Option.value ~default:0 (Kvstore.Store.size_of t.store req.Message.key)
  | Message.Scan count ->
      (* The size-aware classifier needs the range's total bytes — the
         same ordered walk the serve path performs, minus the copies. *)
      let total = ref 0 in
      ignore
        (Kvstore.Store.scan t.store ~start:req.Message.key ~count (fun _ len ->
             total := !total + len));
      !total

(* Graceful degradation (shed-large-first): above the watermark the
   worker answers [Overloaded] instead of executing.  Large requests shed
   first; small ones only under 4x the backlog, so the 99% of cheap
   requests keep their latency while the expensive tail absorbs the
   shortfall.  The reply still flows to the client, so in-flight
   accounting stays exact and the client backs off. *)
let try_shed t (w : worker) ~large =
  match t.cfg.shed_watermark with
  | None -> false
  | Some wm ->
      let backlog = Netsim.Ring.length w.rx + Netsim.Ring.length w.swq in
      let limit = if large then wm else 4 * wm in
      if backlog > limit then begin
        Atomic.incr (if large then t.shed_large else t.shed_small);
        true
      end
      else false

let shed_reply t (w : worker) (req : Message.request) =
  push_reply t
    {
      Message.request_id = req.Message.id;
      status = Message.Overloaded;
      value = None;
      value_size = 0;
      served_by = w.id;
      completed_at = Unix.gettimeofday ();
    }

let classify_and_serve t (w : worker) plan req =
  let item_size = request_item_size t req in
  let size = float_of_int item_size in
  Stats.Log_histogram.record (Atomic.get w.hist) size;
  obs_mark t Obs.Span.ts_classify req;
  (if req.Message.obs_slot >= 0 then
     match t.obs with
     | None -> ()
     | Some o ->
         Obs.Recorder.set_meta o.Obs.Instrument.recorder req.Message.obs_slot
           Obs.Span.meta_size item_size);
  match Kvserver.Control.route plan size with
  | None -> if try_shed t w ~large:false then shed_reply t w req else serve t w req
  | Some _ when try_shed t w ~large:true -> shed_reply t w req
  | Some j ->
      let target =
        t.workers.(Kvserver.Control.large_core_id plan ~cores:t.cfg.cores j)
      in
      (if req.Message.obs_slot >= 0 then
         match t.obs with
         | None -> ()
         | Some o ->
             Obs.Recorder.set_meta o.Obs.Instrument.recorder req.Message.obs_slot
               Obs.Span.meta_class Obs.Span.class_large);
      if target.id = w.id then serve t w req
      else if Netsim.Ring.try_push target.swq req then begin
        obs_mark t Obs.Span.ts_handoff_enq req;
        Atomic.incr t.handoffs
      end
      else
        (* Software queue full: serve in place rather than block or drop —
           backpressure degrades to size-unaware behaviour momentarily. *)
        serve t w req

let drain_batch ring limit =
  (* [pop_exn] rather than [try_pop]: this runs once per request per
     scheduling iteration, and the exception variant skips the [Some]
     allocation on every drained element. *)
  let rec go acc n =
    if n >= limit then List.rev acc
    else
      match Netsim.Ring.pop_exn ring with
      | r -> go (r :: acc) (n + 1)
      | exception Netsim.Ring.Empty -> List.rev acc
  in
  go [] 0

(* One scheduling iteration; returns the number of requests handled. *)
let size_aware_iteration t (w : worker) =
  let plan = Atomic.get t.plan in
  if Kvserver.Control.is_small_core plan w.id then begin
    (* Small core: drain own RX plus a fair share of the large cores'. *)
    let batch = drain_batch w.rx t.cfg.batch in
    let ns = max 1 plan.Kvserver.Control.n_small in
    let share = (t.cfg.batch + ns - 1) / ns in
    let extra =
      List.concat
        (List.init (t.cfg.cores - plan.Kvserver.Control.n_small) (fun i ->
             drain_batch t.workers.(plan.Kvserver.Control.n_small + i).rx share))
    in
    (* Standby large duty: serve anything already in our software queue
       first. *)
    let queued = drain_batch w.swq t.cfg.batch in
    List.iter (obs_mark t Obs.Span.ts_handoff_deq) queued;
    List.iter (obs_mark t Obs.Span.ts_poll) batch;
    List.iter (obs_mark t Obs.Span.ts_poll) extra;
    List.iter (serve t w) queued;
    List.iter (classify_and_serve t w plan) batch;
    List.iter (classify_and_serve t w plan) extra;
    List.length batch + List.length extra + List.length queued
  end
  else begin
    (* Large core: serve the software queue; leftover batch items from a
       role change are classified rather than stranded. *)
    let queued = drain_batch w.swq t.cfg.batch in
    List.iter (obs_mark t Obs.Span.ts_handoff_deq) queued;
    List.iter (serve t w) queued;
    let leftover = drain_batch w.rx 0 in
    List.iter (obs_mark t Obs.Span.ts_poll) leftover;
    List.iter (classify_and_serve t w plan) leftover;
    List.length queued
  end

let keyhash_iteration t (w : worker) =
  let batch = drain_batch w.rx t.cfg.batch in
  List.iter (obs_mark t Obs.Span.ts_poll) batch;
  List.iter (serve t w) batch;
  List.length batch

(* ------------------------------------------------------------------ *)
(* Control loop: run by core 0 between batches (as in the paper). *)

let fault_now_us t =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t.started_ns) /. 1.0e3

let controller_tick t ~smoothed =
  (* A stat-delay fault starves the controller of fresh histograms; the
     hardened loop skips the epoch (keeping the last good plan) rather
     than recompute from a stale or empty merge. *)
  if Atomic.get t.ctrl_delayed then Atomic.incr t.ctrl_stale
  else begin
  let merged = fresh_hist () in
  Array.iter
    (fun w ->
      let h = Atomic.exchange w.hist (fresh_hist ()) in
      Stats.Log_histogram.merge_into ~dst:merged h)
    t.workers;
  if not (Stats.Log_histogram.is_empty merged) then begin
    let s =
      match !smoothed with
      | None -> merged
      | Some prev -> Stats.Log_histogram.smooth ~prev ~current:merged ~alpha:t.cfg.alpha
    in
    smoothed := Some s;
    (* Same quantile [Control.compute] would take, surfaced so a
       corruption fault can mangle it and [Control.sanitize] can reject
       NaN / clamp runaway movement against the last good value. *)
    let raw = Stats.Log_histogram.quantile s t.cfg.percentile in
    let raw =
      match t.cfg.fault with
      | None -> raw
      | Some f -> Fault.Inject.corrupt_threshold f ~now:(fault_now_us t) raw
    in
    let threshold =
      match t.cfg.clamp_threshold with
      | None -> raw
      | Some _ ->
          Kvserver.Control.sanitize ~last_good:t.last_good_threshold
            ~clamp:t.cfg.clamp_threshold raw
    in
    if Float.is_finite threshold && threshold > 0.0 then
      t.last_good_threshold <- threshold;
    let plan =
      Kvserver.Control.compute ~cores:t.cfg.cores ~cost_fn:t.cfg.cost_fn
        ~percentile:t.cfg.percentile ~threshold_override:threshold s
    in
    let old = Atomic.exchange t.plan plan in
    if
      old.Kvserver.Control.n_large <> plan.Kvserver.Control.n_large
      || abs_float (old.Kvserver.Control.threshold -. plan.Kvserver.Control.threshold)
         > 0.05 *. plan.Kvserver.Control.threshold
    then
      Log.info (fun m ->
          m "epoch %d: threshold %.0fB, %d small + %d large cores"
            (Atomic.get t.epochs + 1)
            plan.Kvserver.Control.threshold plan.Kvserver.Control.n_small
            plan.Kvserver.Control.n_large);
    (match t.obs with
    | None -> ()
    | Some o ->
        (* Only worker 0 runs the controller, so the log needs no lock. *)
        Obs.Decision_log.record o.Obs.Instrument.decisions ~now:(now_us ())
          ~threshold:plan.Kvserver.Control.threshold
          ~n_small:plan.Kvserver.Control.n_small
          ~n_large:plan.Kvserver.Control.n_large ());
    Atomic.incr t.epochs
  end
  end

let timeline_tick t tl ~now =
  let s = Obs.Timeline.start_sample tl ~now:(now *. 1.0e6) in
  if s >= 0 then
    Array.iter
      (fun (w : worker) ->
        Obs.Timeline.set_core tl ~sample:s ~core:w.id
          ~depth:(Netsim.Ring.length w.rx)
          ~busy_us:(float_of_int (Atomic.get w.busy_ns) /. 1.0e3))
      t.workers

let worker_loop t (w : worker) =
  let smoothed = ref None in
  let last_epoch = ref (Unix.gettimeofday ()) in
  let last_tl = ref !last_epoch in
  let idle_streak = ref 0 in
  (* Busy accounting (per-iteration clock reads) only when a timeline is
     attached; the uninstrumented loop keeps its single clock read on
     worker 0. *)
  let tl =
    match t.obs with
    | Some { Obs.Instrument.timeline = Some tl; _ } -> Some tl
    | Some _ | None -> None
  in
  while not (Atomic.get t.stop_flag) do
    let iter_start =
      match tl with Some _ -> Unix.gettimeofday () | None -> 0.0
    in
    let handled =
      match t.cfg.mode with
      | Size_aware -> size_aware_iteration t w
      | Keyhash -> keyhash_iteration t w
    in
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
    if w.id = 0 && t.cfg.mode = Size_aware then begin
      let now = Unix.gettimeofday () in
      if now -. !last_epoch >= t.cfg.epoch_s then begin
        last_epoch := now;
        controller_tick t ~smoothed
      end
    end;
    let stall = Atomic.get t.stall_us.(w.id) in
    if stall > 0 then Unix.sleepf (float_of_int stall /. 1.0e6);
    if handled = 0 then begin
      incr idle_streak;
      if !idle_streak > 64 then begin
        idle_streak := 0;
        Unix.sleepf t.cfg.idle_backoff_s
      end
      else Domain.cpu_relax ()
    end
    else idle_streak := 0
  done

(* ------------------------------------------------------------------ *)

(* The fault clock: one posix thread re-samples the plan's windows every
   millisecond into plain atomics.  Workers pay one atomic load per
   iteration whether or not a plan is loaded; all window scanning happens
   here, off the data path.  A slowdown factor f becomes an extra
   (f - 1) x 100 us sleep per scheduling iteration (capped at 5 ms), a
   serviceable stand-in for a core running f times slower. *)
let fault_clock_loop t f =
  while not (Atomic.get t.stop_flag) do
    let now = fault_now_us t in
    for c = 0 to t.cfg.cores - 1 do
      let factor = Fault.Inject.slowdown f ~core:c ~now in
      let stall =
        if factor > 1.0 then
          int_of_float (Float.min 5000.0 ((factor -. 1.0) *. 100.0))
        else 0
      in
      Atomic.set t.stall_us.(c) stall;
      Atomic.set t.rx_cap.(c)
        (min t.cfg.ring_capacity (Fault.Inject.rx_capacity f ~queue:c ~now))
    done;
    Atomic.set t.ctrl_delayed (Fault.Inject.ctrl_delayed f ~now);
    Thread.delay 0.001
  done

(* Background expiry: one posix thread walks the store every sweep
   period, reclaiming lapsed slots — the eager companion to the read
   path's lazy expiry, same split as the DES engine's wheel-scheduled
   sweep event. *)
let expiry_sweep_loop t =
  while not (Atomic.get t.stop_flag) do
    ignore (Kvstore.Store.expire_sweep t.store ~now:(Unix.gettimeofday ()));
    Thread.delay t.cfg.expiry_sweep_s
  done

let start ?obs ?(config = default_config) store =
  if config.cores < 2 then invalid_arg "Server.start: need at least 2 cores";
  if config.batch < 1 then invalid_arg "Server.start: batch must be >= 1";
  if config.expiry_sweep_s < 0.0 then
    invalid_arg "Server.start: expiry_sweep_s must be >= 0";
  (* SCANs walk the sorted key index; build it before workers serve. *)
  Kvstore.Store.ensure_ordered store;
  let t =
    {
      cfg = config;
      store;
      workers =
        Array.init config.cores (fun id ->
            {
              id;
              rx = Netsim.Ring.create ~capacity:config.ring_capacity;
              swq = Netsim.Ring.create ~capacity:config.ring_capacity;
              hist = Atomic.make (fresh_hist ());
              accepted = Atomic.make 0;
              served = Atomic.make 0;
              busy_ns = Atomic.make 0;
            });
      replies = Netsim.Ring.create ~capacity:65536;
      stash = Queue.create ();
      stash_lock = Mutex.create ();
      plan = Atomic.make (Kvserver.Control.initial ~cores:config.cores);
      handoffs = Atomic.make 0;
      epochs = Atomic.make 0;
      shed_small = Atomic.make 0;
      shed_large = Atomic.make 0;
      rx_rejected = Atomic.make 0;
      ctrl_stale = Atomic.make 0;
      stall_us = Array.init config.cores (fun _ -> Atomic.make 0);
      rx_cap = Array.init config.cores (fun _ -> Atomic.make config.ring_capacity);
      ctrl_delayed = Atomic.make false;
      started_ns = Monotonic_clock.now ();
      last_good_threshold = infinity;
      in_flight = Atomic.make 0;
      accepting = Atomic.make true;
      stop_flag = Atomic.make false;
      domains = [];
      stopped = false;
      obs;
    }
  in
  Log.info (fun m ->
      m "starting: %d worker domains, batch %d, %s mode" config.cores config.batch
        (match config.mode with Size_aware -> "size-aware" | Keyhash -> "keyhash"));
  t.domains <-
    List.init config.cores (fun i ->
        Domain.spawn (fun () -> worker_loop t t.workers.(i)));
  (match config.fault with
  | Some f -> ignore (Thread.create (fun () -> fault_clock_loop t f) ())
  | None -> ());
  if config.expiry_sweep_s > 0.0 then
    ignore (Thread.create (fun () -> expiry_sweep_loop t) ());
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
  ctrl_stale : int;
  expired : int;
  ledger : Obs.Ledger.t;
}

let stats (t : t) =
  let plan = Atomic.get t.plan in
  let count f = Array.fold_left (fun acc (w : worker) -> acc + Atomic.get (f w)) 0 t.workers in
  let shed_small = Atomic.get t.shed_small and shed_large = Atomic.get t.shed_large in
  let rx_rejected = Atomic.get t.rx_rejected in
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
    ctrl_stale = Atomic.get t.ctrl_stale;
    expired = (Kvstore.Store.stats t.store).Kvstore.Store.expired;
    ledger =
      Obs.Ledger.make ~issued:(count (fun w -> w.accepted) + rx_rejected)
        [
          ("served", count (fun w -> w.served));
          ("shed_small", shed_small);
          ("shed_large", shed_large);
          ("rx_rejected", rx_rejected);
          ("in_flight", Atomic.get t.in_flight);
        ];
  }

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.accepting false;
    (* Drain: keep emptying the reply ring (on the clients' behalf) until
       every accepted request has been answered. *)
    while Atomic.get t.in_flight > 0 do
      (match Netsim.Ring.try_pop t.replies with
      | Some r ->
          Mutex.lock t.stash_lock;
          Queue.add r t.stash;
          Mutex.unlock t.stash_lock
      | None -> ());
      Domain.cpu_relax ()
    done;
    Atomic.set t.stop_flag true;
    List.iter Domain.join t.domains;
    t.domains <- [];
    Log.info (fun m ->
        m "stopped: %d requests served, %d handoffs"
          (Array.fold_left (fun acc (w : worker) -> acc + Atomic.get w.served) 0 t.workers)
          (Atomic.get t.handoffs))
  end
