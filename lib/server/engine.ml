(* Requests are pooled: [slot] is the request's permanent index in the
   engine's pool, every other field is overwritten when the slot is
   reused for a new arrival.  The slot doubles as the typed-event operand
   for service completion and as the TX-scheduler token. *)
type request = {
  slot : int;
  mutable op : Cost_model.op;
  mutable key_id : int;
  mutable item_size : int;
  mutable is_large_truth : bool;
  mutable scan_len : int; (* keys covered by a SCAN, 0 otherwise *)
  mutable miss : bool; (* GET found no live item (TTL / eviction) *)
  mutable frames_in : int; (* doubled when a fault duplicates the frames *)
  mutable rx_queue : int;
  mutable span : int; (* flight-recorder slot, -1 when not sampled *)
}
(* The arrival timestamp lives in the engine's [arrivals] float array
   (indexed by slot), not here: a float field in this mixed record would
   box on every overwrite, once per request. *)

let fresh_request slot =
  {
    slot;
    op = Cost_model.Get;
    key_id = 0;
    item_size = 0;
    is_large_truth = false;
    scan_len = 0;
    miss = false;
    frames_in = 0;
    rx_queue = 0;
    span = -1;
  }

let dummy_request = fresh_request (-1)

(* Time-varying offered load for reshard runs: [rate_at now] is the
   offered rate (Mops) at simulated time [now]; [next_change now] is the
   next time the rate changes (so a parked arrival loop knows when to
   wake).  Both must be pure functions of [now].  A constant-rate pacing
   equal to [offered_mops] reproduces the unpaced arrival stream draw
   for draw. *)
type pacing = {
  rate_at : float -> float;
  next_change : float -> float;
}

type design = {
  name : string;
  dispatch : request -> int;
  on_arrival : queue:int -> unit;
  on_epoch : unit -> unit;
  large_core_count : unit -> int;
  current_threshold : unit -> float;
}

(* Placeholder until [start] builds the real design. *)
let no_design =
  {
    name = "";
    dispatch = (fun _ -> 0);
    on_arrival = (fun ~queue:_ -> ());
    on_epoch = ignore;
    large_core_count = (fun () -> 0);
    current_threshold = (fun () -> Float.nan);
  }

type fate = Served | Net_dropped | Rx_dropped | Shed | Cancelled

type t = {
  cfg : Config.t;
  sim : Dsim.Sim.t;
  gen : Workload.Generator.t option;
      (* [None] for a caller-fed engine: arrivals come from [submit] *)
  mutable design : design;
  dataset : Workload.Dataset.t;
  key_names : string array;
      (* materialized key strings, only when a real store is attached *)
  source : (unit -> Workload.Generator.request) option;
  pacing : pacing option;
  timed : Workload.Trace.t option;
      (* replay requests at their recorded timestamps (overrides the
         Poisson arrival loop; [source]/[pacing] are ignored) *)
  dynamic : Workload.Dynamic.t option;
  store : Kvstore.Store.t option;
  residency : Residency.t option;
      (* TTL/eviction model for scenario runs; [None] on the plain path *)
  sweep_us : float option; (* background expiry-sweep period *)
  nic : int Netsim.Nic.t;
      (* RX queues carry pool slots, not request pointers: int queues keep
         [Fifo] push/pop free of the pointer-store write barrier, which is
         measurable at millions of events per second *)
  mutable tx : Netsim.Txsched.t;
      (* mutable only to break the creation knot: the scheduler's
         completion callback needs [t] *)
  offered_mops : float;
  (* Request pool: an array-stack of free slots over parallel storage.
     [arrivals] and [cpu_dones] ride alongside as float arrays (not
     record fields) so the per-request stores do not box. *)
  mutable pool : request array;
  mutable free_slots : int array;
  mutable free_top : int;
  mutable arrivals : float array;
  mutable cpu_dones : float array;
  (* Caller-fed engines only: the caller's tag for each submitted slot
     and whether the caller cancelled it. *)
  mutable tags : int array;
  mutable cancel_marks : bool array;
  mutable on_retire : int -> fate -> unit;
  (* Typed-event plumbing: designs install [resume] once; the engine
     dispatches core wake-ups and service completions through these
     handler tags instead of per-event closures. *)
  mutable resume : int -> unit;
  mutable tag_resume : int;
  mutable tag_service : int;
  (* Per-core accounting as parallel arrays: float stores into a float
     array don't box, unlike stores into a mixed record's float field. *)
  core_ops : int array;
  core_packets : int array;
  core_busy_us : float array;
  latencies : Stats.Float_vec.t; (* every recorded latency, completion order *)
  mutable large_marks : Bytes.t;
      (* bit [i] set: sample [i] of [latencies] is a large request's;
         [finish] selects each class's quantile through it *)
  windowed : Stats.Windowed.t option;
  mutable issued : int;
  mutable processed_total : int; (* served ops, stability accounting *)
  mutable processed_window : int; (* served ops inside the window: throughput *)
  queue_wait : Stats.Summary.t;
  service : Stats.Summary.t;
  tx_wait : Stats.Summary.t;
  mutable large_core_series : (float * int) list;
  arrival_rng : Dsim.Rng.t;
  sampling_rng : Dsim.Rng.t;
  dispatch_rng : Dsim.Rng.t;
  mutable eviction_rng : Dsim.Rng.t;
      (* forked from the sim only when residency is attached, after the
         three streams above — plain runs fork exactly as before, so
         every pre-scenario golden stays byte-identical *)
  put_value : bytes; (* scratch buffer reused for real-store writes *)
  mutable probe : (core:int -> request -> unit) option;
  obs : Obs.Instrument.t option;
  fault : Fault.Inject.t option;
  server : int; (* id kill-server plan events match against *)
  rx_cap : int; (* configured RX ring bound, [max_int] when unbounded *)
  mutable net_dropped : int;
  mutable rx_dropped : int;
  mutable shed_small : int;
  mutable shed_large : int;
  mutable expired_misses : int;
      (* GETs processed but answered not-found: the new telescoping leg *)
  mutable cancelled : int; (* submitted requests retired by [cancel] *)
  mutable lost : int; (* retired with a loss fate; see [retire] *)
}

let set_probe t f = t.probe <- Some f

let set_resume t f = t.resume <- f

(* ---------------- request pool ---------------- *)

let[@cold] grow_pool t =
  let old = Array.length t.pool in
  let n = 2 * old in
  let pool = Array.make n dummy_request in
  Array.blit t.pool 0 pool 0 old;
  for i = old to n - 1 do
    pool.(i) <- fresh_request i
  done;
  let free = Array.make n 0 in
  Array.blit t.free_slots 0 free 0 t.free_top;
  for i = old to n - 1 do
    free.(t.free_top) <- i;
    t.free_top <- t.free_top + 1
  done;
  let ar = Array.make n 0.0 in
  Array.blit t.arrivals 0 ar 0 old;
  let cd = Array.make n 0.0 in
  Array.blit t.cpu_dones 0 cd 0 old;
  let tags = Array.make n (-1) in
  Array.blit t.tags 0 tags 0 old;
  let marks = Array.make n false in
  Array.blit t.cancel_marks 0 marks 0 old;
  t.pool <- pool;
  t.free_slots <- free;
  t.arrivals <- ar;
  t.cpu_dones <- cd;
  t.tags <- tags;
  t.cancel_marks <- marks

let alloc_req t =
  if t.free_top = 0 then grow_pool t;
  t.free_top <- t.free_top - 1;
  t.pool.(t.free_slots.(t.free_top))

(* Exactly one retirement per allocated request, at whichever point
   ends it: fault drop, RX tail-drop, shed, cancellation, unsampled
   (no-reply) completion, or reply TX completion.  A caller-fed engine
   reports the fate under the caller's tag once the slot is free again.
   Requests still sitting in queues when the run ends are never retired
   — the pool dies with the engine. *)
let fed t = Option.is_none t.gen

let retire t (req : request) fate =
  t.free_slots.(t.free_top) <- req.slot;
  t.free_top <- t.free_top + 1;
  (* The one definition of which fates are losses: offered load that
     produced no reply. *)
  (match fate with
  | Net_dropped | Rx_dropped | Shed -> t.lost <- t.lost + 1
  | Served | Cancelled -> ());
  if fed t then t.on_retire t.tags.(req.slot) fate

let set_retire t f = t.on_retire <- f
let tag t (req : request) = t.tags.(req.slot)
let is_cancelled t (req : request) = fed t && t.cancel_marks.(req.slot)
let cancel t slot = t.cancel_marks.(slot) <- true

(* ---------------- flight-recorder hooks ----------------

   Each hook is a conditional store into the recorder's preallocated
   arrays: nothing here allocates, so instrumented designs keep the
   zero-allocation hot path. *)

let obs_mark t field (req : request) =
  if req.span >= 0 then
    match t.obs with
    | None -> ()
    | Some o ->
        Obs.Recorder.set_ts o.Obs.Instrument.recorder req.span field
          (Dsim.Sim.now t.sim)

let obs_poll t req = obs_mark t Obs.Span.ts_poll req
let obs_classify t req = obs_mark t Obs.Span.ts_classify req
let obs_handoff_enq t req = obs_mark t Obs.Span.ts_handoff_enq req
let obs_handoff_deq t req = obs_mark t Obs.Span.ts_handoff_deq req

let obs_sample_arrival t (req : request) ~queue =
  match t.obs with
  | None -> ()
  | Some o ->
      let r = o.Obs.Instrument.recorder in
      let slot = Obs.Recorder.try_sample r in
      if slot >= 0 then begin
        req.span <- slot;
        Obs.Recorder.set_ts r slot Obs.Span.ts_rx_enq t.arrivals.(req.slot);
        Obs.Recorder.set_meta r slot Obs.Span.meta_seq (t.issued - 1);
        Obs.Recorder.set_meta r slot Obs.Span.meta_rx_queue queue;
        Obs.Recorder.set_meta r slot Obs.Span.meta_class
          (if req.is_large_truth then Obs.Span.class_large else Obs.Span.class_small);
        Obs.Recorder.set_meta r slot Obs.Span.meta_op
          (match req.op with
          | Cost_model.Get -> Obs.Span.op_get
          | Cost_model.Put -> Obs.Span.op_put
          | Cost_model.Scan -> Obs.Span.op_scan);
        Obs.Recorder.set_meta r slot Obs.Span.meta_size req.item_size
      end

let sim t = t.sim
let config t = t.cfg
let cores t = t.cfg.Config.cores
let now t = Dsim.Sim.now t.sim
let rx t i = Netsim.Nic.rx t.nic i

let[@inline] req_of_slot t slot = t.pool.(slot)
let dispatch_rng t = t.dispatch_rng

(* Keyhash-based master core: the 30-bit partition of the key's name hash,
   as a real keyhash would spread it.  The dataset computes it from the key
   id in registers, without building the name. *)
let put_master t req =
  Workload.Dataset.key_partition t.dataset req.key_id mod t.cfg.Config.cores

let uniform_queue t = Dsim.Rng.int t.dispatch_rng t.cfg.Config.cores

let in_window t time =
  time >= t.cfg.Config.warmup_us && time <= t.cfg.Config.duration_us

(* ---------------- fault hooks ----------------

   Same discipline as the flight-recorder hooks: with no injector
   attached, every hook is one [match] on an immutable [None] field and
   costs nothing — no call, no boxed float, no allocation.  The faulty
   branches may allocate freely. *)

(* CPU time under an open stall window: a finite factor slows the work, an
   infinite one parks the core until the window closes (the work itself
   then runs at full speed). *)
let slowed t f ~core dt =
  let now = Dsim.Sim.now t.sim in
  let m = Fault.Inject.slowdown f ~core ~now in
  if m = 1.0 then dt
  else if Float.is_finite m then dt *. m
  else Fault.Inject.stall_end f ~core ~now -. now +. dt

let busy t ~core dt =
  let dt = match t.fault with None -> dt | Some f -> slowed t f ~core dt in
  t.core_busy_us.(core) <- t.core_busy_us.(core) +. dt;
  Dsim.Sim.schedule_call_after t.sim dt ~tag:t.tag_resume ~i:core ~j:0

(* Top-level recursion, not a local [let rec]: a local recursive
   function closes over [t] and allocates on every call, and this runs
   per admission decision on the hot path. *)
let rec rx_backlog_scan t n i acc =
  if i >= n then acc
  else rx_backlog_scan t n (i + 1) (acc + Netsim.Fifo.length (Netsim.Nic.rx t.nic i))

let total_rx_backlog t = rx_backlog_scan t t.cfg.Config.cores 0 0

(* Admission control over the total RX backlog ({!Control.shed}): large
   requests are rare but expensive (the paper's core insight), so shedding
   them first recovers the most capacity for the least goodput loss. *)
let try_shed t req ~large =
  match t.cfg.Config.shed_watermark with
  | None -> false
  | Some watermark ->
      if Control.shed ~watermark ~backlog:(total_rx_backlog t) ~large && not (is_cancelled t req)
      then begin
        if large then t.shed_large <- t.shed_large + 1
        else t.shed_small <- t.shed_small + 1;
        retire t req Shed;
        true
      end
      else false

let ctrl_delayed t =
  match t.fault with
  | None -> false
  | Some f -> Fault.Inject.ctrl_delayed f ~now:(Dsim.Sim.now t.sim)

let corrupt_threshold t threshold =
  match t.fault with
  | None -> threshold
  | Some f -> Fault.Inject.corrupt_threshold f ~now:(Dsim.Sim.now t.sim) threshold

let lost t = t.lost
let core_ops_live t = t.core_ops

let touch_real_store t req =
  match t.store with
  | None -> ()
  | Some store -> (
      let key = t.key_names.(req.key_id) in
      match req.op with
      | Cost_model.Get -> ignore (Kvstore.Store.size_of store key)
      | Cost_model.Scan ->
          (* Fidelity touch only: the simulated scan's bytes/frames come
             from the dataset; real ordered iteration is exercised by
             {!Kvstore.Store.scan} in the runtime server and tests. *)
          ignore (Kvstore.Store.size_of store key)
      | Cost_model.Put ->
          (* Write a small marker value: materializing multi-hundred-KB
             values for every simulated PUT would swamp the run without
             changing the queueing behaviour; real value handling is
             exercised by the KV tests and examples. *)
          Kvstore.Store.put store ~guard:`Lock key t.put_value)

(* Set the class bit of latency sample [i], growing the bitmap by
   doubling (new bytes zeroed: unmarked samples are small). *)
let mark_large t i =
  let byte = i lsr 3 in
  if byte >= Bytes.length t.large_marks then begin
    let marks = Bytes.make (2 * max byte 1) '\000' in
    Bytes.blit t.large_marks 0 marks 0 (Bytes.length t.large_marks);
    t.large_marks <- marks
  end;
  Bytes.set_uint8 t.large_marks byte
    (Bytes.get_uint8 t.large_marks byte lor (1 lsl (i land 7)))

(* Called when the reply's last frame leaves the wire.  A caller-fed
   engine serves copies of the caller's requests, so it leaves latency
   to the caller. *)
let record_reply t req ~finish_time =
  if in_window t finish_time && not (fed t) then begin
    let latency =
      finish_time +. t.cfg.Config.cost.Cost_model.pipeline_latency_us
      -. t.arrivals.(req.slot)
    in
    if req.is_large_truth then mark_large t (Stats.Float_vec.length t.latencies);
    Stats.Float_vec.push t.latencies latency;
    match t.windowed with
    | Some w -> Stats.Windowed.add w ~time:finish_time latency
    | None -> ()
  end

(* Called when the reply's last frame leaves the wire ([Txsched]'s
   completion callback); the token is the request's pool slot. *)
let tx_done t slot finish_time =
  let req = t.pool.(slot) in
  if in_window t finish_time then
    Stats.Summary.add t.tx_wait (finish_time -. t.cpu_dones.(slot));
  (if req.span >= 0 then
     match t.obs with
     | None -> ()
     | Some o ->
         let r = o.Obs.Instrument.recorder in
         Obs.Recorder.set_ts r req.span Obs.Span.ts_tx_done finish_time;
         Obs.Recorder.set_ts r req.span Obs.Span.ts_end
           (finish_time +. t.cfg.Config.cost.Cost_model.pipeline_latency_us));
  record_reply t req ~finish_time;
  retire t req Served

let complete t req ~core ~tx_queue =
  let slot = req.slot in
  touch_real_store t req;
  (* §6.4: under reply sampling the server does all the processing but
     sends only a fraction of the replies; throughput counts processed
     operations, latency is measured on delivered replies. *)
  let replied =
    match req.op with
    | Cost_model.Put -> true
    | Cost_model.Scan -> true (* the reply carries the range; never elided *)
    | Cost_model.Get ->
        t.cfg.Config.sampling >= 1.0
        || Dsim.Rng.unit_float t.sampling_rng < t.cfg.Config.sampling
  in
  let reply_frames = Cost_model.reply_frames req.op ~item_size:req.item_size in
  t.core_ops.(core) <- t.core_ops.(core) + 1;
  t.core_packets.(core) <-
    t.core_packets.(core) + req.frames_in + (if replied then reply_frames else 0);
  t.processed_total <- t.processed_total + 1;
  if req.miss then t.expired_misses <- t.expired_misses + 1;
  if in_window t (Dsim.Sim.now t.sim) then
    t.processed_window <- t.processed_window + 1;
  obs_mark t Obs.Span.ts_service_end req;
  if replied then begin
    t.cpu_dones.(slot) <- Dsim.Sim.now t.sim;
    Netsim.Txsched.send t.tx ~queue:tx_queue
      ~payload_bytes:(Cost_model.reply_payload req.op ~item_size:req.item_size)
      ~token:slot
  end
  else retire t req Served;
  (* The core is free as soon as the reply is handed to the NIC. *)
  t.resume core

(* Service completion (typed event): [slot] names the request, [j] packs
   the serving core and the TX queue.  A request cancelled mid-service
   has done its work, but its reply is suppressed. *)
let service_done t slot j =
  let req = t.pool.(slot) in
  let core = j land 0xffff in
  if is_cancelled t req then begin
    t.cancelled <- t.cancelled + 1;
    retire t req Cancelled;
    t.resume core
  end
  else complete t req ~core ~tx_queue:(j lsr 16)

let serve t ~core ~tx_queue ~extra_cpu req =
  (* Residency is consulted at service start: a GET that finds no live
     item (expired, evicted, never loaded) becomes a cheap not-found
     reply; a PUT (re)loads its key, evicting under the memory budget. *)
  (match t.residency with
  | None -> ()
  | Some res -> (
      match req.op with
      | Cost_model.Get ->
          if not (Residency.on_get res ~now:(Dsim.Sim.now t.sim) req.key_id) then begin
            req.miss <- true;
            req.item_size <- 0
          end
      | Cost_model.Put ->
          Residency.on_put res ~now:(Dsim.Sim.now t.sim) t.eviction_rng req.key_id
      | Cost_model.Scan -> () (* scans read the ordered index, not residency *)));
  let cpu =
    Cost_model.cpu_time t.cfg.Config.cost req.op ~item_size:req.item_size +. extra_cpu
  in
  let cpu =
    match t.fault with
    | None -> cpu
    | Some f ->
        (* Duplicated frames (retransmission echoes) cost their per-packet
           handling; the request itself is still served once, so request
           conservation is untouched. *)
        let nominal = Cost_model.request_frames req.op ~item_size:req.item_size in
        let cpu =
          if req.frames_in > nominal then
            cpu
            +. float_of_int (req.frames_in - nominal)
               *. t.cfg.Config.cost.Cost_model.per_packet_us
          else cpu
        in
        slowed t f ~core cpu
  in
  (match t.probe with Some f -> f ~core req | None -> ());
  let start = Dsim.Sim.now t.sim in
  (if req.span >= 0 then
     match t.obs with
     | None -> ()
     | Some o ->
         let r = o.Obs.Instrument.recorder in
         Obs.Recorder.set_ts r req.span Obs.Span.ts_service_start start;
         Obs.Recorder.set_meta r req.span Obs.Span.meta_core core;
         Obs.Recorder.set_meta r req.span Obs.Span.meta_tx_queue tx_queue);
  if in_window t start then begin
    Stats.Summary.add t.queue_wait (start -. t.arrivals.(req.slot));
    Stats.Summary.add t.service cpu
  end;
  t.core_busy_us.(core) <- t.core_busy_us.(core) +. cpu;
  Dsim.Sim.schedule_call_after t.sim cpu ~tag:t.tag_service ~i:req.slot
    ~j:(core lor (tx_queue lsl 16))

(* A cancelled request leaves without being served; the core moves on
   through an event rather than recursing into the design. *)
let execute t ~core ~tx_queue ~extra_cpu req =
  if is_cancelled t req then begin
    t.cancelled <- t.cancelled + 1;
    retire t req Cancelled;
    Dsim.Sim.schedule_call_after t.sim 0.0 ~tag:t.tag_resume ~i:core ~j:0
  end
  else serve t ~core ~tx_queue ~extra_cpu req

let validate_common ~server cfg =
  if server < 0 then invalid_arg "Engine.create: server must be >= 0";
  match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.create: " ^ msg)

(* Room for every reply the window can record: the offered rate over the
   measurement window, plus six standard deviations of its Poisson count
   and a few requests in flight at the window's edges.  Sized once, the
   latency record is never copied; [Array.create_float] leaves what an
   overloaded point does not record unwritten, so it costs address space,
   not memory.  Paced or bursty arrivals and timed traces that outrun it
   fall back to doubling; a caller-fed engine (rate 0) records nothing. *)
let expected_samples cfg ~offered_mops =
  let mean = offered_mops *. (cfg.Config.duration_us -. cfg.Config.warmup_us) in
  if not (mean > 0.0) then 1 else int_of_float (Float.ceil (mean +. (6.0 *. sqrt mean))) + 256

let build ?dynamic ?store ?source ?pacing ?timed ?residency ?sweep_us ?obs ?fault ~server
    ~sim ~gen ~dataset cfg ~offered_mops =
  let pool_init = 256 in
  let samples = expected_samples cfg ~offered_mops in
  let t =
    {
      cfg;
      sim;
      gen;
      design = no_design;
      dataset;
      key_names =
        (match store with
        | None -> [||]
        | Some _ ->
            Array.init (Workload.Dataset.n_keys dataset) Workload.Dataset.key_name);
      source;
      pacing;
      timed;
      dynamic;
      store;
      residency;
      sweep_us;
      nic = Netsim.Nic.create ~queues:cfg.Config.cores ~dummy:(-1);
      tx =
        (* placeholder, replaced below once [t] exists for the completion
           callback *)
        Netsim.Txsched.create ~gbps:1.0 ~queues:1
          ~schedule:(fun _ -> ())
          ~now:(fun () -> 0.0)
          ~on_complete:(fun _ _ -> ());
      offered_mops;
      pool = Array.init pool_init fresh_request;
      free_slots = Array.init pool_init (fun i -> i);
      free_top = pool_init;
      arrivals = Array.make pool_init 0.0;
      cpu_dones = Array.make pool_init 0.0;
      tags = Array.make pool_init (-1);
      cancel_marks = Array.make pool_init false;
      on_retire = (fun _ _ -> ());
      resume = ignore;
      tag_resume = -1;
      tag_service = -1;
      core_ops = Array.make cfg.Config.cores 0;
      core_packets = Array.make cfg.Config.cores 0;
      core_busy_us = Array.make cfg.Config.cores 0.0;
      latencies = Stats.Float_vec.create ~capacity:samples ();
      large_marks = Bytes.make ((samples + 7) / 8) '\000';
      windowed =
        (match cfg.Config.window_us with
        | Some w -> Some (Stats.Windowed.create ~width:w ())
        | None -> None);
      issued = 0;
      processed_total = 0;
      processed_window = 0;
      queue_wait = Stats.Summary.create ();
      service = Stats.Summary.create ();
      tx_wait = Stats.Summary.create ();
      large_core_series = [];
      arrival_rng = Dsim.Sim.fork_rng sim;
      sampling_rng = Dsim.Sim.fork_rng sim;
      dispatch_rng = Dsim.Sim.fork_rng sim;
      eviction_rng = Dsim.Rng.create 0 (* replaced below iff residency *);
      put_value = Bytes.create 16;
      probe = None;
      obs;
      fault;
      server;
      rx_cap = (match cfg.Config.rx_capacity with Some c -> c | None -> max_int);
      net_dropped = 0;
      rx_dropped = 0;
      shed_small = 0;
      shed_large = 0;
      expired_misses = 0;
      cancelled = 0;
      lost = 0;
    }
  in
  (* Forked after the record is built so it always comes after the three
     streams above, whatever the literal's evaluation order — and only
     when residency is attached, keeping plain runs' fork sequence (and
     hence every existing golden) untouched. *)
  (match residency with
  | Some _ -> t.eviction_rng <- Dsim.Sim.fork_rng sim
  | None -> ());
  (* TX frame completions go through a typed event: the wire serializes
     frames, so one handler tag (reading [t.tx] at fire time) covers every
     frame with no per-frame closure. *)
  let tag_frame =
    Dsim.Sim.register_handler sim (fun _ _ -> Netsim.Txsched.frame_done t.tx)
  in
  t.tx <-
    Netsim.Txsched.create ~gbps:cfg.Config.tx_gbps ~queues:cfg.Config.cores
      ~schedule:(fun delay ->
        Dsim.Sim.schedule_call_after sim delay ~tag:tag_frame ~i:0 ~j:0)
      ~now:(fun () -> Dsim.Sim.now sim)
      ~on_complete:(fun token finish_time -> tx_done t token finish_time);
  t.tag_resume <- Dsim.Sim.register_handler sim (fun core _ -> t.resume core);
  t.tag_service <- Dsim.Sim.register_handler sim (fun slot j -> service_done t slot j);
  t

let create ?dynamic ?store ?source ?pacing ?timed ?residency ?sweep_us ?obs ?fault
    ?(server = 0) cfg gen ~offered_mops =
  validate_common ~server cfg;
  if not (offered_mops > 0.0) then invalid_arg "Engine.create: offered_mops must be > 0";
  (match timed with
  | Some trace when not (Workload.Trace.timed trace) ->
      invalid_arg "Engine.create: timed replay needs a timestamped trace"
  | Some trace when Workload.Trace.length trace = 0 ->
      invalid_arg "Engine.create: timed trace is empty"
  | Some _ | None -> ());
  (match sweep_us with
  | Some s when not (s > 0.0) ->
      invalid_arg "Engine.create: sweep_us must be positive"
  | Some _ | None -> ());
  (match (dynamic, source, timed) with
  | Some _, Some _, _ | Some _, _, Some _ ->
      invalid_arg
        "Engine.create: a dynamic phase plan varies the generator, which a source or a \
         timed trace replaces"
  | _ -> ());
  build ?dynamic ?store ?source ?pacing ?timed ?residency ?sweep_us ?obs ?fault ~server
    ~sim:(Dsim.Sim.create ~seed:cfg.Config.seed ())
    ~gen:(Some gen) ~dataset:(Workload.Generator.dataset gen) cfg ~offered_mops

let attach ?fault ?(server = 0) sim cfg dataset =
  validate_common ~server cfg;
  build ?fault ~server ~sim ~gen:None ~dataset cfg ~offered_mops:0.0

(* Overwrite a pooled request's fields for a new arrival. *)
let fill_request t req op ~key_id ~item_size ~is_large ~scan_len =
  req.op <- op;
  req.key_id <- key_id;
  req.item_size <- item_size;
  req.is_large_truth <- is_large;
  req.scan_len <- scan_len;
  req.miss <- false;
  t.arrivals.(req.slot) <- Dsim.Sim.now t.sim;
  req.frames_in <- Cost_model.request_frames op ~item_size;
  req.rx_queue <- 0;
  req.span <- -1

let raw_latencies t = t.latencies
let windowed t = t.windowed

(* Final delivery step, after any fault fate was applied: tail-drop when
   the RX ring (possibly squeezed by the plan) is full, else enqueue and
   wake the design. *)
let deliver t (req : request) =
  let queue = req.rx_queue in
  let cap =
    match t.fault with
    | None -> t.rx_cap
    | Some f -> min t.rx_cap (Fault.Inject.rx_capacity f ~queue ~now:(Dsim.Sim.now t.sim))
  in
  if cap < max_int && Netsim.Fifo.length (Netsim.Nic.rx t.nic queue) >= cap then begin
    t.rx_dropped <- t.rx_dropped + 1;
    retire t req Rx_dropped
  end
  else begin
    Netsim.Nic.deliver t.nic ~queue req.slot;
    t.design.on_arrival ~queue
  end

(* Dispatch + issue accounting + fault fate, shared by the Poisson
   arrival loop, the timed-trace pump and [submit]. *)
let admit t (req : request) =
  let queue = t.design.dispatch req in
  req.rx_queue <- queue;
  t.issued <- t.issued + 1;
  obs_sample_arrival t req ~queue;
  match t.fault with
  | None -> deliver t req
  | Some f when Fault.Inject.server_dead f ~server:t.server ~now:(Dsim.Sim.now t.sim) ->
      (* The whole server is crashed: the arrival bounces off a dead
         NIC, same leg as a net-fault drop. *)
      t.net_dropped <- t.net_dropped + 1;
      retire t req Net_dropped
  | Some f -> (
      match Fault.Inject.fate f ~queue ~now:(Dsim.Sim.now t.sim) with
      | Fault.Inject.Pass -> deliver t req
      | Fault.Inject.Drop ->
          t.net_dropped <- t.net_dropped + 1;
          retire t req Net_dropped
      | Fault.Inject.Duplicate ->
          req.frames_in <- 2 * req.frames_in;
          deliver t req
      | Fault.Inject.Reorder ->
          let d = Fault.Inject.reorder_delay_us f ~queue ~now:(Dsim.Sim.now t.sim) in
          Dsim.Sim.schedule_after t.sim d (fun () -> deliver t req))

let submit t ~tag op ~key_id ~item_size ~is_large ~scan_len =
  if not (fed t) then invalid_arg "Engine.submit: engine runs its own arrivals";
  let req = alloc_req t in
  fill_request t req op ~key_id ~item_size ~is_large ~scan_len;
  t.tags.(req.slot) <- tag;
  t.cancel_marks.(req.slot) <- false;
  let slot = req.slot in
  admit t req;
  slot

(* The engine's own arrivals: a Poisson loop over the generator (or a
   replayed source), or a timed trace at its recorded times. *)
let start_arrivals t gen =
  let cfg = t.cfg in
  let mean_gap = 1.0 /. t.offered_mops (* µs between arrivals at X Mops *) in
  (* Arrivals are a typed event too: the generator loop is one event per
     request, so the closure-payload path would pay two pointer stores
     (write barrier) per arrival for the same one handler. *)
  let tag_arrive = ref (-1) in
  let arrive () =
    let arrive_now = Dsim.Sim.now t.sim in
    if arrive_now < cfg.Config.duration_us then begin
      match t.pacing with
      | Some p when p.rate_at arrive_now <= 0.0 ->
          (* Parked: the engine serves no traffic in the current routing
             interval.  Nothing is generated and no RNG stream advances,
             so the draws made inside active intervals are identical to
             those of an engine that was never parked. *)
          let wake = p.next_change arrive_now in
          if wake < cfg.Config.duration_us then
            Dsim.Sim.schedule_call_after t.sim (wake -. arrive_now)
              ~tag:!tag_arrive ~i:0 ~j:0
      | pacing ->
      let req = alloc_req t in
      (match t.source with
      | Some next ->
          let g = next () in
          let op =
            match g.Workload.Generator.op with
            | Workload.Generator.Get -> Cost_model.Get
            | Workload.Generator.Put -> Cost_model.Put
            | Workload.Generator.Scan -> Cost_model.Scan
          in
          fill_request t req op ~key_id:g.Workload.Generator.key_id
            ~item_size:g.Workload.Generator.item_size
            ~is_large:g.Workload.Generator.is_large
            ~scan_len:g.Workload.Generator.scan_len
      | None ->
          (match t.dynamic with
          | Some sched ->
              Workload.Generator.set_p_large gen
                (Workload.Dynamic.p_large_at sched (Dsim.Sim.now t.sim))
          | None -> ());
          Workload.Generator.next_into gen;
          let op =
            match Workload.Generator.last_op gen with
            | Workload.Generator.Get -> Cost_model.Get
            | Workload.Generator.Put -> Cost_model.Put
            | Workload.Generator.Scan -> Cost_model.Scan
          in
          fill_request t req op
            ~key_id:(Workload.Generator.last_key_id gen)
            ~item_size:(Workload.Generator.last_item_size gen)
            ~is_large:(Workload.Generator.last_is_large gen)
            ~scan_len:(Workload.Generator.last_scan_len gen));
      admit t req;
      let mean =
        match pacing with None -> mean_gap | Some p -> 1.0 /. p.rate_at arrive_now
      in
      Dsim.Sim.schedule_call_after t.sim
        (Dsim.Rng.exponential t.arrival_rng ~mean)
        ~tag:!tag_arrive ~i:0 ~j:0
    end
  in
  tag_arrive := Dsim.Sim.register_handler t.sim (fun _ _ -> arrive ());
  (* Timed-trace replay: each recorded request is injected at its recorded
     offset from the trace start (re-based to the run's origin), looping
     with a re-base each lap so the recorded rate carries across the
     seam.  A typed event with the trace index as operand — no per-request
     closure. *)
  (match t.timed with
  | None -> Dsim.Sim.schedule_call_after t.sim 0.0 ~tag:!tag_arrive ~i:0 ~j:0
  | Some trace ->
      let reqs = Workload.Trace.requests trace in
      let ts = Workload.Trace.timestamps trace in
      let n = Array.length reqs in
      let t0 = ts.(0) in
      let span =
        if n = 1 then 1.0
        else (ts.(n - 1) -. t0) *. float_of_int n /. float_of_int (n - 1)
      in
      let tag_replay = ref (-1) in
      let pump i =
        if Dsim.Sim.now t.sim < cfg.Config.duration_us then begin
          let r = reqs.(i) in
          let req = alloc_req t in
          let op =
            match r.Workload.Generator.op with
            | Workload.Generator.Get -> Cost_model.Get
            | Workload.Generator.Put -> Cost_model.Put
            | Workload.Generator.Scan -> Cost_model.Scan
          in
          fill_request t req op ~key_id:r.Workload.Generator.key_id
            ~item_size:r.Workload.Generator.item_size
            ~is_large:r.Workload.Generator.is_large
            ~scan_len:r.Workload.Generator.scan_len;
          admit t req;
          let gap =
            if i + 1 < n then ts.(i + 1) -. ts.(i) else span -. (ts.(n - 1) -. t0)
          in
          Dsim.Sim.schedule_call_after t.sim gap ~tag:!tag_replay ~i:((i + 1) mod n)
            ~j:0
        end
      in
      tag_replay := Dsim.Sim.register_handler t.sim (fun i _ -> pump i);
      Dsim.Sim.schedule_call_after t.sim 0.0 ~tag:!tag_replay ~i:0 ~j:0)

let start t make_design =
  let design = make_design t in
  t.design <- design;
  let cfg = t.cfg in
  (* A caller-fed engine has no arrival loop: requests come from
     [submit]. *)
  Option.iter (start_arrivals t) t.gen;
  let rec epoch () =
    if Dsim.Sim.now t.sim < cfg.Config.duration_us then begin
      design.on_epoch ();
      t.large_core_series <-
        (Dsim.Sim.now t.sim, design.large_core_count ()) :: t.large_core_series;
      (match t.obs with
      | None -> ()
      | Some o ->
          let n_large = design.large_core_count () in
          Obs.Decision_log.record o.Obs.Instrument.decisions ~lost:(lost t)
            ~now:(Dsim.Sim.now t.sim)
            ~threshold:(design.current_threshold ())
            ~n_small:(cfg.Config.cores - n_large) ~n_large ());
      Dsim.Sim.schedule_after t.sim cfg.Config.epoch_us epoch
    end
  in
  Dsim.Sim.schedule_after t.sim cfg.Config.epoch_us epoch;
  (* Background expiry sweep: a chunked cursor walk per period, sized to
     cover the resident set a few times per run without a stop-the-world
     pass. *)
  (match (t.residency, t.sweep_us) with
  | Some res, Some period ->
      let rec sweep () =
        if Dsim.Sim.now t.sim < cfg.Config.duration_us then begin
          let chunk = max 1024 (Residency.resident res / 4) in
          ignore (Residency.sweep_step res ~now:(Dsim.Sim.now t.sim) ~chunk);
          Dsim.Sim.schedule_after t.sim period sweep
        end
      in
      Dsim.Sim.schedule_after t.sim period sweep
  | (Some _ | None), _ -> ());
  (match t.obs with
  | Some { Obs.Instrument.timeline = Some tl; _ } ->
      let rec tick () =
        if Dsim.Sim.now t.sim < cfg.Config.duration_us then begin
          let s = Obs.Timeline.start_sample tl ~now:(Dsim.Sim.now t.sim) in
          if s >= 0 then
            for c = 0 to cfg.Config.cores - 1 do
              Obs.Timeline.set_core tl ~sample:s ~core:c
                ~depth:(Netsim.Fifo.length (Netsim.Nic.rx t.nic c))
                ~busy_us:t.core_busy_us.(c)
            done;
          Dsim.Sim.schedule_after t.sim (Obs.Timeline.interval_us tl) tick
        end
      in
      Dsim.Sim.schedule_after t.sim 0.0 tick
  | Some _ | None -> ());
  (* Reset NIC counters at the start of the measurement window so TX
     utilization covers only the measured interval. *)
  Dsim.Sim.schedule_at t.sim cfg.Config.warmup_us (fun () ->
      Netsim.Txsched.reset_counters t.tx)

let finish t =
  let cfg = t.cfg in
  let design = t.design in
  let window = cfg.Config.duration_us -. cfg.Config.warmup_us in
  (* Measured, not derived from the other legs, so the ledger's identity
     is a real check: requests still holding a pool slot, less the
     replies on the NIC (already counted as served). *)
  let in_flight =
    Array.length t.pool - t.free_top - Netsim.Txsched.pending_messages t.tx
  in
  (* Unstable when the leftover backlog exceeds what a loaded-but-stable
     system would plausibly hold in flight. *)
  let backlog_cap = max 2000 (int_of_float (0.02 *. float_of_int t.issued)) in
  (* Every quantile is selected in place from the one completion-order
     record; the class marks restrict the per-class ones. *)
  let all p =
    if Stats.Float_vec.length t.latencies = 0 then Float.nan
    else Stats.Quantile.of_vec t.latencies p
  in
  let cls ~large p =
    Stats.Quantile.of_vec_marked t.latencies ~marks:t.large_marks ~marked:large p
  in
  {
    Metrics.design = design.name;
    offered_mops = t.offered_mops;
    issued = t.issued;
    completed = t.processed_window;
    throughput_mops = float_of_int t.processed_window /. window;
    mean_us = Stats.Quantile.mean_of_vec t.latencies;
    p50_us = all 0.5;
    p95_us = all 0.95;
    p99_us = all 0.99;
    p999_us = all 0.999;
    small_p99_us = cls ~large:false 0.99;
    large_p99_us = cls ~large:true 0.99;
    nic_tx_utilization = Netsim.Txsched.utilization t.tx ~elapsed:window;
    stable = in_flight <= backlog_cap;
    per_core_ops = Array.copy t.core_ops;
    per_core_packets = Array.copy t.core_packets;
    final_large_cores = design.large_core_count ();
    final_threshold = design.current_threshold ();
    p99_series =
      (match t.windowed with
      | Some w -> Stats.Windowed.quantile_series w 0.99
      | None -> []);
    large_core_series = List.rev t.large_core_series;
    in_flight_end = in_flight;
    mean_queue_wait_us = Stats.Summary.mean t.queue_wait;
    mean_service_us = Stats.Summary.mean t.service;
    mean_tx_wait_us = Stats.Summary.mean t.tx_wait;
    served_total = t.processed_total - t.expired_misses;
    net_dropped = t.net_dropped;
    rx_dropped = t.rx_dropped;
    shed_small = t.shed_small;
    shed_large = t.shed_large;
    expired_misses = t.expired_misses;
    expired_keys =
      (match t.residency with Some r -> Residency.expired_keys r | None -> 0);
    evicted_keys =
      (match t.residency with Some r -> Residency.evicted_keys r | None -> 0);
    cancelled = t.cancelled;
    lost = t.lost;
  }

let run t make_design =
  start t make_design;
  Dsim.Sim.run t.sim ~until:t.cfg.Config.duration_us;
  finish t
