let name = "Minos"

type core = {
  id : int;
  mutable idle : bool;
  batch : int Netsim.Fifo.t; (* small-core run-to-completion batch *)
  swq : int Netsim.Fifo.t; (* software queue when large/standby *)
  (* Queues hold pool slots (see [Engine.rx]): pushing ints skips the
     GC write barrier that pointer queues pay on every store. *)
  hist : Stats.Log_histogram.t; (* item sizes observed this epoch *)
}

(* Roles are assigned to {e slots}, not physical cores: [slot_core] is a
   permutation of the physical ids, the plan covers slots
   [0 .. n_active - 1] (small cores first, large cores at the tail), and a
   core the watchdog excluded sits in the slots beyond [n_active], where
   no role ever reaches it.  With no watchdog the permutation stays the
   identity and every slot computation reduces to the physical id. *)
type state = {
  eng : Engine.t;
  cfg : Config.t;
  cores : core array;
  slot_core : int array; (* slot -> physical core id *)
  core_slot : int array; (* physical core id -> slot *)
  mutable n_active : int;
  mutable excluded : int; (* physical id, -1 when none *)
  wd : Watchdog.t option;
  mutable plan : Control.plan; (* over the [n_active] slots *)
  epoch : Control.Epoch.t;
  corrupt : float -> float; (* the fault plan's threshold corruption *)
  mutable standby_engaged : bool;
      (** In standby mode (n_large = 0), whether the standby core is
          currently acting as a large core.  While engaged it stops
          reading RX queues and the small cores drain its RX queue for it
          — "if a large request arrives, it is sent to this core, which
          then becomes a large core" (§3). *)
}

let profiling_cost st =
  (* The §6.2 static-threshold variant skips per-request profiling. *)
  match st.cfg.Config.static_threshold with
  | Some _ -> 0.0
  | None -> st.cfg.Config.cost.Cost_model.profile_us

let phys st slot = st.slot_core.(slot)
let standby_phys st = phys st (Control.standby_core ~cores:st.n_active)

(* PUTs on keys mastered by a large (or excluded) core may be written by
   any core and need the partition spinlock (§4.2). *)
let put_lock_cost st (req : Engine.request) =
  match req.Engine.op with
  | Cost_model.Put
    when st.core_slot.(Engine.put_master st.eng req) >= st.plan.Control.n_small ->
      st.cfg.Config.cost.Cost_model.lock_us
  | Cost_model.Put | Cost_model.Get | Cost_model.Scan -> 0.0

let standby_mode st = st.plan.Control.n_large = 0

let is_small st id =
  let slot = st.core_slot.(id) in
  slot < st.plan.Control.n_small
  && not
       (standby_mode st && st.standby_engaged
       && slot = Control.standby_core ~cores:st.n_active)

let rec step st c =
  if is_small st c.id then small_step st c else large_step st c

and wake st c =
  if c.idle then begin
    c.idle <- false;
    step st c
  end

(* ---------------- small cores ---------------- *)

and small_step st c =
  if Netsim.Fifo.is_empty c.batch then refill st c
  else classify_and_serve st c (Netsim.Fifo.pop_exn c.batch)

and classify_and_serve st c slot =
  let req = Engine.req_of_slot st.eng slot in
  let size = float_of_int req.Engine.item_size in
  Stats.Log_histogram.record c.hist size;
  Engine.obs_classify st.eng req;
  let profile = profiling_cost st in
  (* [route_idx] rather than [route]: [Some j] is a boxed allocation on
     the per-request path; [-1] encodes small. *)
  let j = Control.route_idx st.plan size in
  if j < 0 then begin
    if Engine.try_shed st.eng req ~large:false then
      Engine.busy st.eng ~core:c.id profile
    else
      Engine.execute st.eng ~core:c.id ~tx_queue:c.id
        ~extra_cpu:(profile +. put_lock_cost st req)
        req
  end
  else begin
    if Engine.try_shed st.eng req ~large:true then
      Engine.busy st.eng ~core:c.id profile
    else begin
      (* Software handoff: push onto the owning large core's queue.  In
         standby mode this engages the standby core as a large core. *)
      let target =
        st.cores.(phys st (Control.large_core_id st.plan ~cores:st.n_active j))
      in
      if standby_mode st then st.standby_engaged <- true;
      Engine.obs_handoff_enq st.eng req;
      Netsim.Fifo.push target.swq slot;
      wake st target;
      Engine.busy st.eng ~core:c.id
        (st.cfg.Config.cost.Cost_model.handoff_us +. profile)
    end
  end

(* Pull up to [limit] requests from [rx] into [c.batch]; returns the
   count.  Part of the [step] recursion rather than a local closure so
   the per-poll path allocates nothing (depth is bounded by the batch
   size, so the non-tail recursion is safe). *)
and pull_from st c rx limit =
  if limit <= 0 || Netsim.Fifo.is_empty rx then 0
  else begin
    let r = Netsim.Fifo.pop_exn rx in
    Engine.obs_poll st.eng (Engine.req_of_slot st.eng r);
    Netsim.Fifo.push c.batch r;
    1 + pull_from st c rx (limit - 1)
  end

and pull_large_shares st c share slot acc =
  if slot >= st.n_active then acc
  else
    pull_large_shares st c share (slot + 1)
      (acc + pull_from st c (Engine.rx st.eng (phys st slot)) share)

and refill st c =
  let b = st.cfg.Config.batch in
  (* Own RX queue first, then an equal share of every large core's RX
     queue, so all queues drain at the same rate (§3).  An engaged standby
     core counts as a large core here, and so does an excluded core: the
     hardware keeps spraying arrivals at both, and the small cores drain
     their RX queues for them. *)
  let pulled = pull_from st c (Engine.rx st.eng c.id) b in
  let standby_engaged = standby_mode st && st.standby_engaged in
  let share =
    Control.fair_share ~batch:b
      ~readers:(st.plan.Control.n_small - if standby_engaged then 1 else 0)
  in
  let pulled = pull_large_shares st c share st.plan.Control.n_small pulled in
  let pulled =
    if standby_engaged && c.id <> standby_phys st then
      pulled + pull_from st c (Engine.rx st.eng (standby_phys st)) share
    else pulled
  in
  let pulled =
    if st.excluded >= 0 then
      pulled + pull_from st c (Engine.rx st.eng st.excluded) share
    else pulled
  in
  if pulled > 0 then
    Engine.busy st.eng ~core:c.id st.cfg.Config.cost.Cost_model.poll_us
  else c.idle <- true

(* ---------------- large cores ---------------- *)

and large_step st c =
  if not (Netsim.Fifo.is_empty c.swq) then begin
    let req = Engine.req_of_slot st.eng (Netsim.Fifo.pop_exn c.swq) in
    Engine.obs_handoff_deq st.eng req;
    Engine.execute st.eng ~core:c.id ~tx_queue:c.id
      ~extra_cpu:(put_lock_cost st req) req
  end
  else if
    (* A core that just turned large may still hold a batch it pulled
       while small; classify those so nothing is stranded. *)
    not (Netsim.Fifo.is_empty c.batch)
  then classify_and_serve st c (Netsim.Fifo.pop_exn c.batch)
  else if
    st.cfg.Config.large_rx_steal
    && st.plan.Control.n_large > 0
    && c.id <> st.excluded
  then rx_steal_step st c
  else
    (* An engaged standby core stays a large core until the next
       control epoch re-designates roles; reverting per-request
       would re-expose every batch it pulls to head-of-line
       blocking behind the next large arrival.  An excluded core
       parks here until readmitted. *)
    c.idle <- true

(* §6.1 variant: an idle large core steals a single request from a small
   core's RX queue — one at a time, so a small request is never queued
   behind a large one. *)
and rx_steal_step st c = rx_steal_scan st c 0

and rx_steal_scan st c slot =
  if slot >= st.plan.Control.n_small then c.idle <- true
  else begin
    let victim = phys st slot in
    if not (Netsim.Fifo.is_empty (Engine.rx st.eng victim)) then begin
        let req = Engine.req_of_slot st.eng (Netsim.Fifo.pop_exn (Engine.rx st.eng victim)) in
        Engine.obs_poll st.eng req;
        let size = float_of_int req.Engine.item_size in
        Stats.Log_histogram.record c.hist size;
        Engine.obs_classify st.eng req;
        if Engine.try_shed st.eng req ~large:(size > st.plan.Control.threshold)
        then
          Engine.busy st.eng ~core:c.id
            (st.cfg.Config.cost.Cost_model.steal_us +. profiling_cost st)
        else begin
          (* TX-queue discipline mirrors the size split: a stolen small
             replies on the victim's (small) TX queue so it never
             serializes behind this core's in-flight large replies; a
             stolen large stays on this large core's queue so it never
             blocks a small queue. *)
          let tx_queue = if size <= st.plan.Control.threshold then victim else c.id in
          Engine.execute st.eng ~core:c.id ~tx_queue
            ~extra_cpu:
              (st.cfg.Config.cost.Cost_model.steal_us
              +. profiling_cost st +. put_lock_cost st req)
            req
        end
    end
    else rx_steal_scan st c (slot + 1)
  end

(* ---------------- watchdog ---------------- *)

(* Swap the physical core into / out of the tail of the slot permutation;
   the plan is recomputed over the shrunken or regrown active set by the
   caller (the epoch handler). *)
let exclude st p =
  let s = st.core_slot.(p) in
  let last = st.n_active - 1 in
  let q = st.slot_core.(last) in
  st.slot_core.(s) <- q;
  st.slot_core.(last) <- p;
  st.core_slot.(q) <- s;
  st.core_slot.(p) <- last;
  st.n_active <- st.n_active - 1;
  st.excluded <- p

let watchdog_tick st =
  match st.wd with
  | None -> false
  | Some wd -> (
      match
        Watchdog.observe wd
          ~ops:(Engine.core_ops_live st.eng)
          ~depth:(fun c -> Netsim.Fifo.length (Engine.rx st.eng c))
      with
      | Watchdog.No_change -> false
      | Watchdog.Exclude p ->
          exclude st p;
          true
      | Watchdog.Readmit _ ->
          (* The excluded core already sits at slot [n_active]; growing
             the active set re-covers it. *)
          st.n_active <- st.n_active + 1;
          st.excluded <- -1;
          true)

(* ---------------- control loop ---------------- *)

(* The executor's half of a control tick: drain the per-core histograms
   (a stale tick discards them) and, when {!Control.Epoch.step} derives a
   plan over the current active set, install it and re-route what the
   change displaced. *)
let on_epoch st () =
  let set_changed = watchdog_tick st in
  let merged = Control.size_histogram () in
  Array.iter
    (fun c ->
      Stats.Log_histogram.merge_into ~dst:merged c.hist;
      Stats.Log_histogram.reset c.hist)
    st.cores;
  match
    Control.Epoch.step st.epoch ~cores:st.n_active ~stale:(Engine.ctrl_delayed st.eng)
      ~force:set_changed ~corrupt:st.corrupt merged
  with
  | None -> ()
  | Some new_plan ->
      let old_plan = st.plan in
      st.plan <- new_plan;
      (* Each epoch re-designates roles; a previously engaged standby core
         returns to small duty once its queue is clear. *)
      st.standby_engaged <-
        new_plan.Control.n_large = 0
        && not (Netsim.Fifo.is_empty st.cores.(standby_phys st).swq);
      (* Requests queued for cores whose role or range changed are
         re-routed under the new plan; an active-set change displaces
         everything queued at the excluded/readmitted core too. *)
      if
        set_changed
        || new_plan.Control.n_small <> old_plan.Control.n_small
        || new_plan.Control.ranges <> old_plan.Control.ranges
      then begin
        let displaced = ref [] in
        let take q =
          while not (Netsim.Fifo.is_empty q) do
            displaced := Netsim.Fifo.pop_exn q :: !displaced
          done
        in
        (* An excluded core's staged batch would otherwise be served at its
           degraded speed; reclaim it too. *)
        Array.iter (fun c -> take c.swq; if c.id = st.excluded then take c.batch) st.cores;
        List.iter
          (fun slot ->
            let r = Engine.req_of_slot st.eng slot in
            let j = Control.route_idx st.plan (float_of_int r.Engine.item_size) in
            if j >= 0 then begin
              if standby_mode st then st.standby_engaged <- true;
              Engine.obs_handoff_enq st.eng r;
              Netsim.Fifo.push
                st.cores.(phys st (Control.large_core_id st.plan ~cores:st.n_active j)).swq
                slot
            end
            else
              (* Under the new threshold this queued request counts as
                 small; stage it in a (small) core's local batch. *)
              Netsim.Fifo.push st.cores.(standby_phys st).batch slot)
          (List.rev !displaced)
      end;
      (* Charge the aggregation work to the first active core if it is
         idle; when busy the merge overlaps with request processing. *)
      let c0 = st.cores.(phys st 0) in
      if c0.idle then begin
        c0.idle <- false;
        Engine.busy st.eng ~core:c0.id st.cfg.Config.cost.Cost_model.epoch_aggregate_us
      end;
      (* Roles may have changed: give every core a chance to find work. *)
      Array.iter (fun c -> wake st c) st.cores

let make eng =
  let cfg = Engine.config eng in
  let n = Engine.cores eng in
  let epoch =
    Control.Epoch.create ?static_threshold:cfg.Config.static_threshold
      ?clamp:cfg.Config.clamp_threshold ~extra_large_core:cfg.Config.large_rx_steal
      ~alpha:cfg.Config.alpha ~percentile:cfg.Config.percentile
      ~cost_fn:cfg.Config.cost_fn ()
  in
  let corrupt = Engine.corrupt_threshold eng in
  let st =
    {
      eng;
      cfg;
      cores =
        Array.init n (fun id ->
            {
              id;
              idle = true;
              batch = Netsim.Fifo.create ~dummy:(-1) ();
              swq = Netsim.Fifo.create ~dummy:(-1) ();
              hist = Control.size_histogram ();
            });
      slot_core = Array.init n (fun i -> i);
      core_slot = Array.init n (fun i -> i);
      n_active = n;
      excluded = -1;
      wd = (if cfg.Config.watchdog then Some (Watchdog.create ~cores:n ()) else None);
      plan = Control.Epoch.plan epoch ~cores:n ~corrupt;
      epoch;
      corrupt;
      standby_engaged = false;
    }
  in
  Engine.set_resume eng (fun id -> step st st.cores.(id));
  {
    Engine.name;
    dispatch =
      (fun req ->
        (* Clients are unaware of roles: GETs (and SCANs) go to a random
           RX queue, PUTs to the keyhash queue (§3). *)
        match req.Engine.op with
        | Cost_model.Get | Cost_model.Scan -> Engine.uniform_queue eng
        | Cost_model.Put -> Engine.put_master eng req);
    on_arrival =
      (fun ~queue ->
        if is_small st queue then begin
          let owner = st.cores.(queue) in
          if owner.idle then wake st owner
          else if st.cfg.Config.large_rx_steal then
            (* An idle large core may steal the queued request. *)
            match
              Array.find_opt
                (fun c -> c.idle && (not (is_small st c.id)) && c.id <> st.excluded)
                st.cores
            with
            | Some thief -> wake st thief
            | None -> ()
        end
        else
          (* Large (and excluded) cores never read their own RX queue;
             wake an idle small core to drain it. *)
          match
            Array.find_opt (fun c -> c.idle && is_small st c.id) st.cores
          with
          | Some helper -> wake st helper
          | None -> ());
    on_epoch = on_epoch st;
    large_core_count =
      (fun () ->
        if standby_mode st && st.standby_engaged then 1 else st.plan.Control.n_large);
    current_threshold = (fun () -> st.plan.Control.threshold);
  }
