module Rng = Dsim.Rng
module Sim = Dsim.Sim
module Engine = Kvserver.Engine
module Cost = Kvserver.Cost_model
module Table = Shardmgr.Table

(* A request waits for a completing copy ([Pending]), for the failure
   detector on a dead server's stuck list ([Parked]), or is resolved;
   its record is [Unused] while back in the pool. *)
type rstate = Pending | Parked | Done | Failed | Unused

(* A copy is [Queued] from submission until its engine starts serving it
   (the probe), [Serving] until the engine retires it, and [Written_off]
   once the router gave up on it — a cancelled loser, or a copy on a
   killed server.  A written-off copy is counted at write-off and
   cancelled in its engine; its slot is only reclaimed when that engine
   retires it, so a retirement never names a recycled copy. *)
type cstate = Free | Queued | Serving | Written_off

(* Pooled: [rid] is the permanent pool index (the hedge timer's operand);
   every other field is rewritten on reuse. *)
type req = {
  rid : int;
  mutable op : Cost.op;
  mutable key : int;
  mutable size : int;
  mutable large : bool;
  mutable scan : int;
  mutable arrive : float;
  mutable state : rstate;
  mutable legs : int;  (* live copies *)
  mutable leg_a : int;
      (* completing copies, -1 when absent: every GET leg, a PUT's
         first (or failover) copy *)
  mutable leg_b : int;
  mutable last : int;  (* server of the most recent copy *)
  mutable hedge : Sim.handle;
}

(* Pooled too: [cid] is the tag its engine reports it under. *)
type copy = {
  cid : int;
  mutable req : req;
  mutable server : int;
  mutable slot : int;  (* the request slot in its engine *)
  mutable cstate : cstate;
}

(* Records recycled through a free stack, grown by doubling. *)
type 'a pool = { mutable items : 'a array; mutable free : int list; fresh : int -> 'a }

let pool fresh = { items = [||]; free = []; fresh }

let take p =
  match p.free with
  | i :: rest ->
      p.free <- rest;
      p.items.(i)
  | [] ->
      let n = Array.length p.items in
      let m = max 1024 (2 * n) in
      p.items <- Array.init m (fun i -> if i < n then p.items.(i) else p.fresh i);
      p.free <- List.init (m - n - 1) (fun k -> n + 1 + k);
      p.items.(n)

let give p i = p.free <- i :: p.free

let fresh_req rid =
  {
    rid;
    op = Cost.Get;
    key = 0;
    size = 0;
    large = false;
    scan = 0;
    arrive = 0.0;
    state = Unused;
    legs = 0;
    leg_a = -1;
    leg_b = -1;
    last = -1;
    hedge = Sim.null_handle;
  }

let no_req = fresh_req (-1)
let fresh_copy cid = { cid; req = no_req; server = -1; slot = -1; cstate = Free }

type t = {
  cfg : Config.t;
  scfg : Kvserver.Config.t;  (* every engine's *)
  table : Table.t;
  sim : Sim.t;
  route_rng : Rng.t;
  budget : Proto.Retry.Budget.t option;  (* [None]: failover disabled *)
  engines : Engine.t array;
  alive : bool array;
  routable : bool array;
  load : int array;  (* outstanding (queued + in-service) copies *)
  stuck : req Queue.t array;  (* per server: requests awaiting failover *)
  reqs : req pool;
  copies : copy pool;
  (* While a request's copies are being submitted, a copy its engine
     retires on the spot (dead NIC, full ring, shed) is only noted here;
     [fan_end] acts once every copy is out. *)
  mutable fanning : int;
  mutable fan_lost : bool;
  mutable fan_dead : int;  (* server that bounced a lost leg, or -1 *)
  (* accounting *)
  mutable issued : int;
  mutable served : int;
  mutable net_dropped : int;
  mutable rx_dropped : int;
  mutable shed : int;
  mutable hedged_wasted : int;
  mutable cancelled : int;
  mutable requests : int;
  mutable completed : int;
  mutable failed : int;
  mutable hedges_issued : int;
  mutable ties_issued : int;
  mutable failovers : int;
  mutable budget_exhausted : int;
  mutable server_killed : int;
  mutable server_recovered : int;
  (* hedge delay estimation *)
  mutable hedge_delay_us : float;
  epoch_vec : Stats.Float_vec.t;
  lat : Stats.Float_vec.t;
  mutable delays : (float * float) list;  (* newest first *)
  mutable tag_hedge : int;
  mutable tag_epoch : int;
  mutable log : Obs.Decision_log.t option;
  mutable on_submit : key:int -> server:int -> unit;
}

(* ------------------------------------------------------------------ *)
(* Replica routing over the run's table: a key's replica set is its read
   owner's, in the epoch in force now; only [routable] members (not yet
   detected dead) are candidates.  [pick] runs once (hedged: twice) per
   GET and is proved allocation-free by @analyze (see
   analyze_roots.txt). *)

let replicas t key =
  let epoch = Table.epoch_at t.table ~now:(Sim.now t.sim) in
  Table.replicas t.table ~epoch (Table.read_owner t.table ~epoch key)

let rec routable_count t reps i excl acc =
  if i = Array.length reps then acc
  else
    let srv = reps.(i) in
    let acc = if srv <> excl && t.routable.(srv) then acc + 1 else acc in
    routable_count t reps (i + 1) excl acc

let rec nth_routable t reps i excl n =
  let srv = reps.(i) in
  if srv <> excl && t.routable.(srv) then
    if n = 0 then srv else nth_routable t reps (i + 1) excl (n - 1)
  else nth_routable t reps (i + 1) excl n

(* The configured policy over one replica set; [-1] when no member but
   [excl] is routable. *)
let pick_in t reps excl =
  let n = routable_count t reps 0 excl 0 in
  if n = 0 then -1
  else if n = 1 then nth_routable t reps 0 excl 0
  else
    match t.cfg.Config.route with
    | Config.Spread -> nth_routable t reps 0 excl (Rng.int t.route_rng n)
    | Config.P2c ->
        let a = nth_routable t reps 0 excl (Rng.int t.route_rng n) in
        let b = nth_routable t reps 0 excl (Rng.int t.route_rng n) in
        if t.load.(a) <= t.load.(b) then a else b

let pick t key excl = pick_in t (replicas t key) excl

(* ------------------------------------------------------------------ *)
(* Resolution *)

let copy t cid = t.copies.items.(cid)
let completes r c = r.leg_a = c.cid || r.leg_b = c.cid

(* A copy stops counting toward its request and its server's load. *)
let detach t c =
  let r = c.req in
  t.load.(c.server) <- t.load.(c.server) - 1;
  r.legs <- r.legs - 1;
  if r.leg_a = c.cid then r.leg_a <- -1 else if r.leg_b = c.cid then r.leg_b <- -1

let release t c =
  c.cstate <- Free;
  c.req <- no_req;
  give t.copies c.cid

let maybe_free t r =
  if (r.state = Done || r.state = Failed) && r.legs = 0 then begin
    r.state <- Unused;
    give t.reqs r.rid
  end

(* Give up on a live copy: detached now, cancelled in its engine,
   reclaimed when the engine retires it.  The caller counts it. *)
let write_off t c =
  detach t c;
  c.cstate <- Written_off;
  c.req <- no_req;
  Engine.cancel t.engines.(c.server) c.slot

let cancel_queued t cid =
  write_off t (copy t cid);
  t.cancelled <- t.cancelled + 1

let disarm t r =
  if not (Sim.is_null r.hedge) then begin
    ignore (Sim.cancel t.sim r.hedge);
    r.hedge <- Sim.null_handle
  end

let fail t r =
  r.state <- Failed;
  t.failed <- t.failed + 1;
  disarm t r;
  maybe_free t r

let complete t r =
  r.state <- Done;
  t.completed <- t.completed + 1;
  disarm t r;
  (* the losing leg, if still queued somewhere, is cancelled *)
  if r.leg_a >= 0 && (copy t r.leg_a).cstate = Queued then cancel_queued t r.leg_a;
  if r.leg_b >= 0 && (copy t r.leg_b).cstate = Queued then cancel_queued t r.leg_b;
  let l = Sim.now t.sim -. r.arrive +. t.scfg.Kvserver.Config.cost.Cost.pipeline_latency_us in
  Stats.Float_vec.push t.epoch_vec l;
  if r.arrive >= t.scfg.Kvserver.Config.warmup_us then Stats.Float_vec.push t.lat l

(* A pending request lost a completing leg.  A PUT has one; a GET is only
   stranded once no leg is live and no hedge timer is armed.  A leg lost
   to a dead NIC parks the request on that server's stuck list — the
   failure detector fails it over in one sweep; a refused leg (ring drop
   / shed) fails the request. *)
let rescue t r ~dead =
  if r.state = Pending && (r.op = Cost.Put || (r.legs = 0 && Sim.is_null r.hedge)) then
    if dead >= 0 then begin
      r.state <- Parked;
      Queue.push r t.stuck.(dead)
    end
    else fail t r

let lost_leg t r ~comp ~dead =
  if comp then
    if r.rid = t.fanning then begin
      t.fan_lost <- true;
      if dead >= 0 then t.fan_dead <- dead
    end
    else rescue t r ~dead

let fan_begin t r =
  t.fanning <- r.rid;
  t.fan_lost <- false;
  t.fan_dead <- -1

let fan_end t r =
  t.fanning <- -1;
  if t.fan_lost then rescue t r ~dead:t.fan_dead

(* Submit one copy of [r] to [server]'s engine; a completing copy becomes
   one of the request's legs.  The engine may retire it on the spot. *)
let submit t r server ~comp =
  t.issued <- t.issued + 1;
  r.last <- server;
  let c = take t.copies in
  c.req <- r;
  c.server <- server;
  c.cstate <- Queued;
  r.legs <- r.legs + 1;
  t.load.(server) <- t.load.(server) + 1;
  if comp then if r.leg_a < 0 then r.leg_a <- c.cid else r.leg_b <- c.cid;
  t.on_submit ~key:r.key ~server;
  let slot =
    Engine.submit t.engines.(server) ~tag:c.cid r.op ~key_id:r.key ~item_size:r.size
      ~is_large:r.large ~scan_len:r.scan
  in
  if c.cstate <> Free then c.slot <- slot

(* One completing copy, rescued at once if its engine refused it. *)
let send t r server =
  fan_begin t r;
  submit t r server ~comp:true;
  fan_end t r

(* ------------------------------------------------------------------ *)
(* Engine callbacks *)

(* Service start (the engine's probe).  Tied GETs: the sibling still
   queued elsewhere is cancelled. *)
let on_start t cid =
  let c = copy t cid in
  if c.cstate = Queued then begin
    c.cstate <- Serving;
    let r = c.req in
    if t.cfg.Config.mode = Config.Tied && r.op <> Cost.Put then begin
      let sib = if r.leg_a = cid then r.leg_b else r.leg_a in
      if sib >= 0 && (copy t sib).cstate = Queued then cancel_queued t sib
    end
  end

let on_retire t s cid (fate : Engine.fate) =
  let c = copy t cid in
  if c.cstate = Written_off then release t c
  else begin
    let r = c.req in
    let comp = completes r c in
    detach t c;
    release t c;
    (match fate with
    | Engine.Served ->
        if r.op <> Cost.Put && r.state <> Pending then
          (* a GET leg whose request was already won elsewhere: the
             hedge tax *)
          t.hedged_wasted <- t.hedged_wasted + 1
        else begin
          t.served <- t.served + 1;
          if comp && r.state = Pending then complete t r
        end
    | Engine.Net_dropped ->
        t.net_dropped <- t.net_dropped + 1;
        lost_leg t r ~comp ~dead:s
    | Engine.Rx_dropped ->
        t.rx_dropped <- t.rx_dropped + 1;
        lost_leg t r ~comp ~dead:(-1)
    | Engine.Shed ->
        t.shed <- t.shed + 1;
        lost_leg t r ~comp ~dead:(-1)
    | Engine.Cancelled ->
        (* the router only cancels copies it has already written off *)
        t.cancelled <- t.cancelled + 1);
    maybe_free t r
  end

(* ------------------------------------------------------------------ *)
(* Router events *)

let on_hedge t rid =
  let r = t.reqs.items.(rid) in
  r.hedge <- Sim.null_handle;
  if r.state = Pending then begin
    let backup = pick t r.key r.last in
    let backup = if backup >= 0 then backup else pick t r.key (-1) in
    if backup >= 0 then begin
      t.hedges_issued <- t.hedges_issued + 1;
      send t r backup
    end
    else rescue t r ~dead:(-1)
  end

let handle_get t r =
  let reps = replicas t r.key in
  let srv = pick_in t reps (-1) in
  if srv < 0 then fail t r
  else
    match t.cfg.Config.mode with
    | Config.Tied when routable_count t reps 0 srv 0 > 0 ->
        let srv2 = pick_in t reps srv in
        t.ties_issued <- t.ties_issued + 1;
        fan_begin t r;
        submit t r srv ~comp:true;
        submit t r srv2 ~comp:true;
        fan_end t r
    | Config.Hedged when Array.length reps > 1 ->
        r.hedge <- Sim.schedule_timer_after t.sim t.hedge_delay_us ~tag:t.tag_hedge ~i:r.rid ~j:0;
        send t r srv
    | _ -> send t r srv

let handle_put t r =
  let reps = replicas t r.key in
  (* write copies fan out to every routable replica; the first routable
     one (the primary, unless it is detected dead) completes the
     request, and a refused completing copy fails it — no backup leg
     retries PUTs *)
  if routable_count t reps 0 (-1) 0 = 0 then fail t r
  else begin
    fan_begin t r;
    let first = t.issued in
    for i = 0 to Array.length reps - 1 do
      let srv = reps.(i) in
      if t.routable.(srv) then submit t r srv ~comp:(t.issued = first)
    done;
    fan_end t r
  end

(* One arrival, drawn by the runner's Poisson loop. *)
let arrive t g =
  let r = take t.reqs in
  t.requests <- t.requests + 1;
  r.op <- Workload.Generator.last_op g;
  r.key <- Workload.Generator.last_key_id g;
  r.size <- Workload.Generator.last_item_size g;
  r.large <- Workload.Generator.last_is_large g;
  r.scan <- Workload.Generator.last_scan_len g;
  r.arrive <- Sim.now t.sim;
  r.state <- Pending;
  r.last <- -1;
  Option.iter Proto.Retry.Budget.earn t.budget;
  (* a SCAN is a read: hedgeable like a GET *)
  if r.op = Cost.Put then handle_put t r else handle_get t r

let record t ~kind ~server ~delay_us =
  Option.iter
    (fun log -> Obs.Decision_log.record_hedge log ~kind ~now:(Sim.now t.sim) ~server ~delay_us)
    t.log

(* The delay re-estimate runs every server control epoch. *)
let on_epoch t =
  let epoch_us = t.scfg.Kvserver.Config.epoch_us in
  if Stats.Float_vec.length t.epoch_vec >= t.cfg.Config.min_delay_samples then begin
    let d = Stats.Quantile.of_vec t.epoch_vec t.cfg.Config.hedge_quantile in
    t.hedge_delay_us <- d;
    t.delays <- (Sim.now t.sim, d) :: t.delays;
    record t ~kind:Obs.Decision_log.kind_hedge_delay ~server:(-1) ~delay_us:d
  end;
  Stats.Float_vec.clear t.epoch_vec;
  if Sim.now t.sim +. epoch_us <= t.scfg.Kvserver.Config.duration_us then
    Sim.schedule_call_after t.sim epoch_us ~tag:t.tag_epoch ~i:0 ~j:0

(* ------------------------------------------------------------------ *)
(* Crash, detection, recovery: the runner calls these at the fault
   plan's instants *)

(* The engine bounces arrivals off its dead NIC from the kill instant
   (its fault injector knows the window); the router writes off every
   copy the server still held — queued or in service — and cancels it in
   the engine, whose queues then drain without serving.  Requests that
   lost their completing leg park until detection. *)
let kill_server t s =
  if t.alive.(s) then begin
    t.server_killed <- t.server_killed + 1;
    t.alive.(s) <- false;
    record t ~kind:Obs.Decision_log.kind_server_kill ~server:s ~delay_us:Float.nan;
    Array.iter
      (fun c ->
        if c.server = s && (c.cstate = Queued || c.cstate = Serving) then begin
          let r = c.req in
          let comp = completes r c in
          write_off t c;
          t.net_dropped <- t.net_dropped + 1;
          if comp then rescue t r ~dead:s;
          maybe_free t r
        end)
      t.copies.items
  end

let failover t r =
  let srv = pick t r.key (-1) in
  if srv < 0 then fail t r
  else if Option.fold ~none:false ~some:Proto.Retry.Budget.try_spend t.budget then begin
    t.failovers <- t.failovers + 1;
    send t r srv
  end
  else begin
    t.budget_exhausted <- t.budget_exhausted + 1;
    fail t r
  end

let detect_server t s =
  if not t.alive.(s) then t.routable.(s) <- false;
  let parked = Queue.create () in
  Queue.transfer t.stuck.(s) parked;
  Queue.iter
    (fun r ->
      r.state <- Pending;
      failover t r)
    parked

let recover_server t s =
  if not t.alive.(s) then begin
    t.server_recovered <- t.server_recovered + 1;
    t.alive.(s) <- true;
    t.routable.(s) <- true;
    record t ~kind:Obs.Decision_log.kind_server_recover ~server:s ~delay_us:Float.nan
  end

(* ------------------------------------------------------------------ *)
(* Setup *)

let create (cfg : Config.t) ~table sim engines =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Kvhedge.Cluster: " ^ msg));
  if Table.migration_windows table <> [] then
    invalid_arg "Kvhedge.Cluster: a membership change writes to two owners; the router routes one";
  let scfg = Engine.config engines.(0) in
  let servers = Array.length engines in
  let t =
    {
      cfg;
      scfg;
      table;
      sim;
      route_rng = Sim.fork_rng sim;
      budget =
        (* [try_spend] needs a whole token, so a capacity below 1.0 can
           never grant a failover: no bucket at all *)
        (if cfg.Config.budget_capacity < 1.0 then None
         else
           Some
             (Proto.Retry.Budget.create ~capacity:cfg.Config.budget_capacity
                ~earn_per_call:cfg.Config.budget_earn_per_request ()));
      engines;
      alive = Array.make servers true;
      routable = Array.make servers true;
      load = Array.make servers 0;
      stuck = Array.init servers (fun _ -> Queue.create ());
      reqs = pool fresh_req;
      copies = pool fresh_copy;
      fanning = -1;
      fan_lost = false;
      fan_dead = -1;
      issued = 0;
      served = 0;
      net_dropped = 0;
      rx_dropped = 0;
      shed = 0;
      hedged_wasted = 0;
      cancelled = 0;
      requests = 0;
      completed = 0;
      failed = 0;
      hedges_issued = 0;
      ties_issued = 0;
      failovers = 0;
      budget_exhausted = 0;
      server_killed = 0;
      server_recovered = 0;
      hedge_delay_us = cfg.Config.hedge_delay_us;
      epoch_vec = Stats.Float_vec.create ();
      lat = Stats.Float_vec.create ();
      delays = [];
      tag_hedge = -1;
      tag_epoch = -1;
      log = None;
      on_submit = (fun ~key:_ ~server:_ -> ());
    }
  in
  Array.iteri
    (fun s eng ->
      Engine.set_retire eng (fun cid fate -> on_retire t s cid fate);
      Engine.set_probe eng (fun ~core:_ req -> on_start t (Engine.tag eng req)))
    engines;
  t.tag_hedge <- Sim.register_handler sim (fun rid _ -> on_hedge t rid);
  t.tag_epoch <- Sim.register_handler sim (fun _ _ -> on_epoch t);
  Sim.schedule_call_after sim scfg.Kvserver.Config.epoch_us ~tag:t.tag_epoch ~i:0 ~j:0;
  t

let set_log t log = t.log <- Some log

let metrics t =
  let in_flight =
    Array.fold_left
      (fun n c -> if c.cstate = Queued || c.cstate = Serving then n + 1 else n)
      0 t.copies.items
  in
  let n = Stats.Float_vec.length t.lat in
  let p50, p95, p99, p999 =
    match if n = 0 then [] else Stats.Quantile.many_of_vec t.lat [ 0.50; 0.95; 0.99; 0.999 ] with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> (Float.nan, Float.nan, Float.nan, Float.nan)
  in
  {
    Metrics.copies =
      Obs.Ledger.make ~issued:t.issued
        [
          ("served", t.served);
          ("net_dropped", t.net_dropped);
          ("rx_dropped", t.rx_dropped);
          ("shed", t.shed);
          ("hedged_wasted", t.hedged_wasted);
          ("cancelled", t.cancelled);
          ("in_flight_end", in_flight);
        ];
    requests =
      Obs.Ledger.make ~issued:t.requests
        [
          ("completed", t.completed);
          ("failed", t.failed);
          ( "pending_end",
            Array.fold_left
              (fun n r -> if r.state = Pending || r.state = Parked then n + 1 else n)
              0 t.reqs.items );
        ];
    hedges_issued = t.hedges_issued;
    ties_issued = t.ties_issued;
    failovers = t.failovers;
    budget_exhausted = t.budget_exhausted;
    server_killed = t.server_killed;
    server_recovered = t.server_recovered;
    samples = n;
    mean_us = (if n = 0 then Float.nan else Stats.Quantile.mean_of_vec t.lat);
    p50_us = p50;
    p95_us = p95;
    p99_us = p99;
    p999_us = p999;
    hedge_delay_series = List.rev t.delays;
    hedge_delay_final_us = t.hedge_delay_us;
    events = Sim.events_processed t.sim;
  }

let run cfg ?fault ?(setup = ignore) ~seed ~server ~design ~workload table =
  let made = ref None in
  let run =
    Shardmgr.Run.run ~seed ?fault ~cfg:server ~design ~workload ~table
      ~router:(fun sim engines ->
        let t = create cfg ~table sim engines in
        made := Some t;
        setup t;
        {
          Shardmgr.Run.arrive = arrive t;
          kill = kill_server t;
          detect = detect_server t;
          recover = recover_server t;
          detect_us = Config.detect_us cfg server;
        })
      ()
  in
  (metrics (Option.get !made), run)

(* Exposed for tests *)
let sim t = t.sim
let routable_snapshot t = Array.copy t.routable
let alive_snapshot t = Array.copy t.alive
let pick_replica t ~shard ~exclude =
  let epoch = Table.epoch_at t.table ~now:(Sim.now t.sim) in
  pick_in t (Table.replicas t.table ~epoch shard) exclude
let on_submit t f = t.on_submit <- f
