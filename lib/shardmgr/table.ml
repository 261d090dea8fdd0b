(* Epoch-stamped routing table: a reshard plan compiled into a sequence
   of time intervals (epochs) with static routing inside each.  Epoch
   boundaries are exactly the protocol's state changes — drain start,
   dual-route start, each key group's cutover instant, migration end,
   replica add/drop — so every routing decision is a pure function of
   (table, time, key), reproducible at any MINOS_JOBS.

   One membership change at a time (Plan.validate pins windows
   disjoint), three phases per change:

     drain      moving keys are served by the old owner only; the new
                owner's backlog for them is empty by construction
     dual       writes go to BOTH owners, reads prefer the new owner
                (with old-owner fallback at the store level, modelled in
                Protocol); key groups cut over one by one at instants
                staggered through the phase in proportion to their
                probed load, so no single instant moves all keys
     cutover    a cut group is served by the new owner alone

   Replicas are orthogonal: add-replica mirrors a shard onto a fresh
   server id (writes fan out to every replica, reads spread by key
   hash), drop-replica retires the most recent one. *)

type policy = Hash | Range

(* Static key ownership: a consistent-hash ring looks up the key's
   partition hash, a key-range map the key id itself. *)
type owner = Ring of Kvcluster.Ring.t | Keys of Kvcluster.Range_map.t

let[@inline] lookup o h k =
  match o with
  | Ring r -> Kvcluster.Ring.lookup r h
  | Keys m -> Kvcluster.Range_map.lookup m k

type seg = {
  own_old : owner;
  own_new : owner; (* == own_old outside a migration *)
  migrating : bool;
  dual : bool; (* dual-route phase open (for groups not yet cut) *)
  cut : bool array; (* per key group; meaningful only while migrating *)
  replicas : int array array;
      (* replicas.(s) = write targets for keys owned by [s], including
         [s] itself; a shared singleton when the shard is unreplicated *)
  shares : float array;
      (* per-server probed traffic share; the offered rate is
         [offered_mops *. shares.(s)] *)
}

type kind = Drain_start | Dual_start | Cutover | Replica_add | Replica_drop

type logged = {
  kind : kind;
  at : float;
  until : float; (* window end for [Dual_start], nan for instants *)
  server : int; (* joining/leaving server or replica id, -1 when n/a *)
  shard : int; (* replicated shard, or the cutover key group *)
  epoch : int; (* routing epoch in force at [at] *)
}

type rebalance_info = {
  imbalance_before : float;
  imbalance_after : float;
  moved_share : float;
}

exception Range_membership of Plan.event

type t = {
  policy : policy;
  rebalance : rebalance_info option;
  dataset : Workload.Dataset.t;
  n_keys : int;
  groups : int;
  n_servers : int; (* engine count: base servers + plan-allocated ids *)
  duration_us : float;
  offered_mops : float;
  bounds : float array; (* bounds.(i) opens epoch i; the last runs out *)
  segs : seg array;
  events : logged list;
  windows : (float * float) list; (* migration windows, chronological *)
}

(* ---------------- hot-path routing ----------------

   Everything below [compile] runs per request inside the engines'
   source filters: no allocation, no closures, direct array reads and
   ring binary searches only (proved by `dune build @analyze`). *)

let[@inline] seg_index t now =
  (* Greatest i with bounds.(i) <= now; bounds.(0) = 0. *)
  let lo = ref 0 and hi = ref (Array.length t.bounds - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.bounds.(mid) <= now then lo := mid else hi := mid - 1
  done;
  !lo

(* Read-side primary: where a GET for key [k] (partition hash [h]) goes,
   before replica spread.  Reads prefer the new owner as soon as the
   dual phase opens — the old-owner fallback is a store-level concern
   (Protocol), not a routing one. *)
let get_primary seg ~groups ~n_keys h k =
  let o_new = lookup seg.own_new h k in
  if not seg.migrating then o_new
  else begin
    let o_old = lookup seg.own_old h k in
    if o_old = o_new then o_new
    else if seg.cut.(k * groups / n_keys) then o_new
    else if seg.dual then o_new
    else o_old
  end

(* Deterministic replica spread: a pure function of the key's partition
   hash, so the same key always reads from the same replica. *)
let[@inline] pick seg h o =
  let reps = seg.replicas.(o) in
  let n = Array.length reps in
  if n = 1 then o else reps.((h lsr 16) mod n)

let rec mem_arr a s i = i >= 0 && (a.(i) = s || mem_arr a s (i - 1))

let[@inline] rep_mem seg o s =
  let reps = seg.replicas.(o) in
  mem_arr reps s (Array.length reps - 1)

(* Write-side membership: writes go to every replica of the owning
   shard, and to BOTH owners while the key's group is in dual-route. *)
let put_member seg ~groups ~n_keys h k s =
  let o_new = lookup seg.own_new h k in
  if not seg.migrating then rep_mem seg o_new s
  else begin
    let o_old = lookup seg.own_old h k in
    if o_old = o_new then rep_mem seg o_new s
    else if seg.cut.(k * groups / n_keys) then rep_mem seg o_new s
    else if seg.dual then rep_mem seg o_new s || rep_mem seg o_old s
    else rep_mem seg o_old s
  end

let epoch_at t ~now = seg_index t now

let routes_to t ~now ~get ~key s =
  let seg = t.segs.(seg_index t now) in
  let h = Workload.Dataset.key_partition t.dataset key in
  if get then pick seg h (get_primary seg ~groups:t.groups ~n_keys:t.n_keys h key) = s
  else put_member seg ~groups:t.groups ~n_keys:t.n_keys h key s

let rate_at t ~now s = t.offered_mops *. (t.segs.(seg_index t now)).shares.(s)

let next_change t ~now =
  let i = seg_index t now in
  if i + 1 < Array.length t.bounds then t.bounds.(i + 1) else infinity

(* ---------------- offline epoch views (tests, Protocol, JSON) ------- *)

let policy t = t.policy
let rebalance_info t = t.rebalance
let n_servers t = t.n_servers
let dataset t = t.dataset
let duration_us t = t.duration_us
let epoch_count t = Array.length t.segs
let epoch_start t i = t.bounds.(i)
let events t = t.events
let migration_windows t = t.windows

let epoch_rates t i = Array.map (fun sh -> t.offered_mops *. sh) t.segs.(i).shares

let read_target t ~epoch k =
  let seg = t.segs.(epoch) in
  let h = Workload.Dataset.key_partition t.dataset k in
  pick seg h (get_primary seg ~groups:t.groups ~n_keys:t.n_keys h k)

(* The owning primary before replica spread: which shard's replica set
   serves the key.  The crash-aware audit uses it to try the owner's
   other mirrors when the spread target is dead. *)
let read_owner t ~epoch k =
  let seg = t.segs.(epoch) in
  let h = Workload.Dataset.key_partition t.dataset k in
  get_primary seg ~groups:t.groups ~n_keys:t.n_keys h k

(* The old-owner primary a migrating read falls back to on a store miss;
   equals the read target when the key is not mid-migration. *)
let read_fallback t ~epoch k =
  let seg = t.segs.(epoch) in
  let h = Workload.Dataset.key_partition t.dataset k in
  if not seg.migrating then pick seg h (lookup seg.own_new h k)
  else lookup seg.own_old h k

(* Whether [k] is mid-migration in this epoch with its group's cutover
   still ahead: the interval during which the old owner is (or is also)
   authoritative.  The instant this turns false is the key's backlog
   transfer point (Protocol copies there). *)
let cut_pending t ~epoch k =
  let seg = t.segs.(epoch) in
  seg.migrating
  &&
  let h = Workload.Dataset.key_partition t.dataset k in
  let o_new = lookup seg.own_new h k in
  let o_old = lookup seg.own_old h k in
  o_old <> o_new && not seg.cut.(k * t.groups / t.n_keys)

let epoch_replicas t i = Array.map Array.copy t.segs.(i).replicas

let write_targets t ~epoch k =
  let seg = t.segs.(epoch) in
  let h = Workload.Dataset.key_partition t.dataset k in
  let acc = ref [] in
  for s = t.n_servers - 1 downto 0 do
    if put_member seg ~groups:t.groups ~n_keys:t.n_keys h k s then acc := s :: !acc
  done;
  !acc

(* Time-weighted mean of a per-epoch value: exactly the epoch value when
   it is constant (so a no-op plan reproduces the static cluster byte
   for byte). *)
let time_avg t v =
  let v0 = v t.segs.(0) in
  if Array.for_all (fun seg -> v seg = v0) t.segs then v0
  else begin
    let m = Array.length t.bounds in
    let acc = ref 0.0 in
    for i = 0 to m - 1 do
      let e = if i + 1 < m then t.bounds.(i + 1) else t.duration_us in
      acc := !acc +. (v t.segs.(i) *. (e -. t.bounds.(i)))
    done;
    !acc /. t.duration_us
  end

let avg_rate t s = time_avg t (fun seg -> t.offered_mops *. seg.shares.(s))
let avg_share t s = time_avg t (fun seg -> seg.shares.(s))

(* ---------------- compilation ---------------- *)

type resolved_membership = {
  m_at : float;
  m_drain_end : float;
  m_dual_end : float;
  m_before : int list;
  m_after : int list;
  m_server : int;
  m_cuts : float array; (* per-group cutover instants *)
}

type resolved =
  | Membership of resolved_membership
  | Replica of { r_at : float; r_shard : int; r_rep : int; r_add : bool }

let err msg = invalid_arg ("Shardmgr.Table.compile: " ^ msg)

let list_eq_int a b =
  List.length a = List.length b && List.for_all2 (fun x y -> x = y) a b

(* Key-space buckets behind a range rebalance's load weights. *)
let probe_buckets = 128

(* Requests in the seeded probe stream. *)
let probe = 65_536

let compile ?(policy = Hash) ?(rebalance = false) ?(vnodes = 128) ?(groups = 8)
    ?(seed = 1) ~servers ~workload ~dataset ~duration_us ~offered_mops plan =
  if servers < 1 then err "servers must be >= 1";
  if groups < 1 then err "groups must be >= 1";
  if not (offered_mops > 0.0) then err "offered load must be > 0";
  if not (duration_us > 0.0) then err "duration must be > 0";
  (match Plan.validate plan with
  | Ok () -> ()
  | Error msg -> err ("plan " ^ plan.Plan.name ^ ": " ^ msg));
  let n_keys = Workload.Dataset.n_keys dataset in
  (* Replay the shared seeded probe stream (seed [seed + 7919]): every
     share, load weight and cutover instant below is measured on it. *)
  let replay f =
    let gen =
      Workload.Generator.create ~seed:(seed + 7919)
        ~p_large:workload.Workload.Spec.p_large
        ~get_ratio:workload.Workload.Spec.get_ratio dataset
    in
    for _ = 1 to probe do
      f (Workload.Generator.next gen)
    done
  in
  let floor_share = 1.0 /. float_of_int probe in
  let shares_of counts =
    Array.map
      (fun c ->
        if c = 0 then 0.0
        else Float.max floor_share (float_of_int c /. float_of_int probe))
      counts
  in
  let imbalance shares =
    let n = float_of_int (Array.length shares) in
    let mean = Array.fold_left ( +. ) 0.0 shares /. n in
    if mean > 0.0 then Array.fold_left Float.max 0.0 shares /. mean else Float.nan
  in
  (* Memoized membership -> ring (few distinct memberships per plan). *)
  let ring_cache = ref [] in
  let ring_of ms =
    match List.find_opt (fun (k, _) -> list_eq_int k ms) !ring_cache with
    | Some (_, r) -> r
    | None ->
        let r = Ring (Kvcluster.Ring.of_members ~vnodes ms) in
        ring_cache := (ms, r) :: !ring_cache;
        r
  in
  (* The initial ownership, re-cut from the probed per-bucket key load
     when [rebalance] asks for it (a ring has no cut points to move). *)
  let base, rebalanced =
    let own =
      match policy with
      | Hash -> ring_of (List.init servers Fun.id)
      | Range -> Keys (Kvcluster.Range_map.create ~servers ~n_keys ())
    in
    if not rebalance then (own, None)
    else begin
      let counts = Array.make servers 0 in
      let weights = Array.make probe_buckets 0.0 in
      replay (fun r ->
          let k = r.Workload.Generator.key_id in
          let s = lookup own (Workload.Dataset.key_partition dataset k) k in
          counts.(s) <- counts.(s) + 1;
          let b = k * probe_buckets / n_keys in
          weights.(b) <- weights.(b) +. 1.0);
      let own' =
        match own with
        | Ring _ -> own
        | Keys m -> Keys (Kvcluster.Range_map.rebalance m ~weights)
      in
      let moved = ref 0 in
      replay (fun r ->
          let k = r.Workload.Generator.key_id in
          let h = Workload.Dataset.key_partition dataset k in
          if lookup own h k <> lookup own' h k then incr moved);
      let moved_share = float_of_int !moved /. float_of_int probe in
      (own', Some (imbalance (shares_of counts), moved_share))
    end
  in
  (* Membership never changes under [Range]: resolving the plan below
     rejects add/remove-server there. *)
  let owner_of ms = match base with Keys _ -> base | Ring _ -> ring_of ms in
  (* Staggered cutover schedule: group g cuts once the cumulative probed
     load of moving keys through g reaches its share of the dual phase,
     so cut instants track where the moving load actually lives. *)
  let cut_times ~before ~after ~drain_end ~dual_end =
    let ob = owner_of before and oa = owner_of after in
    let gw = Array.make groups 0.0 in
    let total = ref 0.0 in
    replay (fun r ->
        let k = r.Workload.Generator.key_id in
        let h = Workload.Dataset.key_partition dataset k in
        if lookup ob h k <> lookup oa h k then begin
          let g = k * groups / n_keys in
          gw.(g) <- gw.(g) +. 1.0;
          total := !total +. 1.0
        end);
    let dual = dual_end -. drain_end in
    let cuts = Array.make groups drain_end in
    if !total > 0.0 then begin
      let cum = ref 0.0 in
      for g = 0 to groups - 1 do
        cum := !cum +. gw.(g);
        cuts.(g) <- drain_end +. (dual *. (!cum /. !total))
      done
    end;
    cuts
  in
  (* Resolve the plan chronologically: allocate fresh server ids, track
     membership and per-shard replica stacks, reject impossible steps. *)
  let sorted =
    List.stable_sort
      (fun a b -> Float.compare (Plan.at_us a) (Plan.at_us b))
      plan.Plan.events
  in
  let members = ref (List.init servers Fun.id) in
  let reps : (int * int list) list ref = ref [] in
  let next_id = ref servers in
  let shard_reps s = match List.assoc_opt s !reps with Some l -> l | None -> [] in
  let resolved =
    List.map
      (fun ev ->
        let at = Plan.at_us ev in
        if at >= duration_us then err "event at or beyond the run duration";
        (match ev with
        | (Plan.Add_server _ | Plan.Remove_server _) when policy = Range ->
            raise (Range_membership ev)
        | _ -> ());
        match ev with
        | Plan.Add_server { at_us; drain_us; dual_us } ->
            let id = !next_id in
            incr next_id;
            let before = !members in
            let after = before @ [ id ] in
            let m_drain_end = at_us +. drain_us in
            let m_dual_end = m_drain_end +. dual_us in
            if m_dual_end > duration_us then
              err "add-server: migration window exceeds the run duration";
            members := after;
            Membership
              {
                m_at = at_us;
                m_drain_end;
                m_dual_end;
                m_before = before;
                m_after = after;
                m_server = id;
                m_cuts = cut_times ~before ~after ~drain_end:m_drain_end
                           ~dual_end:m_dual_end;
              }
        | Plan.Remove_server { server; at_us; drain_us; dual_us } ->
            if not (List.mem server !members) then
              err "remove-server: not a current member";
            if List.length !members < 2 then
              err "remove-server: cannot remove the last member";
            if shard_reps server <> [] then
              err "remove-server: victim still has replicas (drop them first)";
            let before = !members in
            let after = List.filter (fun s -> s <> server) before in
            let m_drain_end = at_us +. drain_us in
            let m_dual_end = m_drain_end +. dual_us in
            if m_dual_end > duration_us then
              err "remove-server: migration window exceeds the run duration";
            members := after;
            Membership
              {
                m_at = at_us;
                m_drain_end;
                m_dual_end;
                m_before = before;
                m_after = after;
                m_server = server;
                m_cuts = cut_times ~before ~after ~drain_end:m_drain_end
                           ~dual_end:m_dual_end;
              }
        | Plan.Add_replica { shard; at_us } ->
            if not (List.mem shard !members) then
              err "add-replica: shard is not a current member";
            let rep = !next_id in
            incr next_id;
            reps := (shard, rep :: shard_reps shard)
                    :: List.remove_assoc shard !reps;
            Replica { r_at = at_us; r_shard = shard; r_rep = rep; r_add = true }
        | Plan.Drop_replica { shard; at_us } -> (
            match shard_reps shard with
            | [] -> err "drop-replica: shard has no replica to drop"
            | rep :: rest ->
                reps := (shard, rest) :: List.remove_assoc shard !reps;
                Replica { r_at = at_us; r_shard = shard; r_rep = rep; r_add = false }))
      sorted
  in
  let n_servers = !next_id in
  (* Epoch boundaries: every protocol state change, deduplicated. *)
  let bounds =
    let acc = ref [ 0.0 ] in
    let add x = if x > 0.0 && x < duration_us then acc := x :: !acc in
    List.iter
      (function
        | Membership m ->
            add m.m_at;
            add m.m_drain_end;
            Array.iter add m.m_cuts;
            add m.m_dual_end
        | Replica r -> add r.r_at)
      resolved;
    let l = List.sort_uniq Float.compare !acc in
    Array.of_list l
  in
  let singles = Array.init n_servers (fun s -> [| s |]) in
  (* State holding at time [b] (start of an epoch): membership, open
     migration (if [b] falls inside one), active replica stacks. *)
  let build_seg b =
    let cur = ref (List.init servers Fun.id) in
    let mig = ref None in
    let rstacks : (int * int list) list ref = ref [] in
    List.iter
      (function
        | Membership m ->
            if m.m_dual_end <= b then cur := m.m_after
            else if m.m_at <= b then mig := Some m
        | Replica r ->
            if r.r_at <= b then
              let l = match List.assoc_opt r.r_shard !rstacks with
                | Some l -> l
                | None -> []
              in
              let l' =
                if r.r_add then r.r_rep :: l
                else List.filter (fun x -> x <> r.r_rep) l
              in
              rstacks := (r.r_shard, l') :: List.remove_assoc r.r_shard !rstacks)
      resolved;
    let own_new =
      match !mig with Some m -> owner_of m.m_after | None -> owner_of !cur
    in
    let own_old =
      match !mig with Some m -> owner_of m.m_before | None -> own_new
    in
    let migrating = Option.is_some !mig in
    let dual = match !mig with Some m -> b >= m.m_drain_end | None -> false in
    let cut = Array.make groups false in
    (match !mig with
    | Some m -> Array.iteri (fun g c -> cut.(g) <- b >= c) m.m_cuts
    | None -> ());
    let replicas = Array.init n_servers (fun s -> singles.(s)) in
    List.iter
      (fun (shard, l) ->
        match l with
        | [] -> ()
        | _ -> replicas.(shard) <- Array.of_list (shard :: List.rev l))
      !rstacks;
    {
      own_old;
      own_new;
      migrating;
      dual;
      cut;
      replicas;
      shares = [||] (* filled below, once the seg routes *);
    }
  in
  let segs = Array.map build_seg bounds in
  (* Per-epoch offered rates, by replaying the shared probe stream
     through this epoch's routing.  A server with zero probed traffic
     gets rate exactly 0 (its engine parks), never the floor: a positive
     rate with an empty routed key set would spin the source filter
     forever. *)
  let segs =
    Array.map
      (fun seg ->
        let counts = Array.make n_servers 0 in
        replay (fun r ->
            let k = r.Workload.Generator.key_id in
            let h = Workload.Dataset.key_partition dataset k in
            match r.Workload.Generator.op with
            | Workload.Generator.Get | Workload.Generator.Scan ->
                let s = pick seg h (get_primary seg ~groups ~n_keys h k) in
                counts.(s) <- counts.(s) + 1
            | Workload.Generator.Put ->
                for s = 0 to n_servers - 1 do
                  if put_member seg ~groups ~n_keys h k s then
                    counts.(s) <- counts.(s) + 1
                done);
        { seg with shares = shares_of counts })
      segs
  in
  let rebalance =
    Option.map
      (fun (imbalance_before, moved_share) ->
        { imbalance_before; imbalance_after = imbalance segs.(0).shares; moved_share })
      rebalanced
  in
  let t =
    {
      policy;
      rebalance;
      dataset;
      n_keys;
      groups;
      n_servers;
      duration_us;
      offered_mops;
      bounds;
      segs;
      events = [];
      windows = [];
    }
  in
  (* The observability record of the plan: one logged event per protocol
     state change, epoch-stamped. *)
  let events =
    List.concat_map
      (function
        | Membership m ->
            let nan = Float.nan in
            Array.to_list
              (Array.mapi
                 (fun g c ->
                   {
                     kind = Cutover;
                     at = c;
                     until = nan;
                     server = m.m_server;
                     shard = g;
                     epoch = epoch_at t ~now:c;
                   })
                 m.m_cuts)
            @ [
                {
                  kind = Drain_start;
                  at = m.m_at;
                  until = nan;
                  server = m.m_server;
                  shard = -1;
                  epoch = epoch_at t ~now:m.m_at;
                };
                {
                  kind = Dual_start;
                  at = m.m_drain_end;
                  until = m.m_dual_end;
                  server = m.m_server;
                  shard = -1;
                  epoch = epoch_at t ~now:m.m_drain_end;
                };
              ]
        | Replica r ->
            [
              {
                kind = (if r.r_add then Replica_add else Replica_drop);
                at = r.r_at;
                until = Float.nan;
                server = r.r_rep;
                shard = r.r_shard;
                epoch = epoch_at t ~now:r.r_at;
              };
            ])
      resolved
    |> List.stable_sort (fun a b -> Float.compare a.at b.at)
  in
  let windows =
    List.filter_map
      (function
        | Membership m -> Some (m.m_at, m.m_dual_end)
        | Replica _ -> None)
      resolved
  in
  { t with events; windows }
