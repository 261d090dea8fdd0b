(* Key-level conservation model of the drain -> dual-route -> cutover
   protocol: replay a seeded client stream against per-server key/value
   maps driven by a compiled routing table, with the background
   transfers a real system performs — at each key group's cutover
   instant the old owner's backlog is copied to the new owner (dual
   writes already put fresh values there) and the old copy retired; a
   freshly added replica receives a full copy of its shard.

   Every write stamps a monotone sequence number, so the checker can
   assert the tentpole's contract exactly: across any sequence of
   reshard events, no key is lost, none is duplicated outside its
   current write-target set, and every read (including the dual-phase
   old-owner fallback) observes the last written value.

   With [?fault], kill-server/recover-server windows overlay crashes on
   the replay: a kill wipes the server's store (in-memory data dies with
   the process) and marks it dead — writes skip it, reads fall back to
   the owner's surviving mirrors, epoch background copies avoid it — and
   a recover resyncs its current holdings from live copies (counted in
   [transferred]) before it serves again. *)

type result = {
  ops : int;
  puts : int;
  gets : int;
  fallback_reads : int; (* dual-phase GETs served by the old owner *)
  transferred : int; (* cutover + replica-add background copies *)
  lost : int; (* reads/keys with no surviving copy *)
  duplicated : int; (* keys left on a server outside their write set *)
  stale : int; (* reads that observed anything but the last write *)
}

let ok r = r.lost = 0 && r.duplicated = 0 && r.stale = 0

let to_json r =
  Obs.Json.(
    Obj
      [
        ("ops", Int r.ops);
        ("puts", Int r.puts);
        ("gets", Int r.gets);
        ("fallback_reads", Int r.fallback_reads);
        ("transferred", Int r.transferred);
        ("lost", Int r.lost);
        ("duplicated", Int r.duplicated);
        ("stale", Int r.stale);
        ("ok", Bool (ok r));
      ])

(* The injector pairs each kill with its earliest matching recover; a
   [Plan.all] wildcard expands to every server here. *)
let crashes ~servers plan =
  let evs = ref [] in
  List.iter
    (fun (s, kill_us, recover_us) ->
      if s >= servers then invalid_arg "Shardmgr.Protocol: kill-server id out of range";
      let add s =
        evs := (kill_us, false, s) :: !evs;
        if Float.is_finite recover_us then evs := (recover_us, true, s) :: !evs
      in
      if s = Fault.Plan.all then
        for s = 0 to servers - 1 do
          add s
        done
      else add s)
    (Fault.Inject.dead_windows (Fault.Inject.create ~seed:0 plan));
  let a = Array.of_list !evs in
  Array.sort
    (fun (t1, r1, s1) (t2, r2, s2) ->
      let c = Float.compare t1 t2 in
      if c <> 0 then c
      else
        let c = Bool.compare r1 r2 in
        if c <> 0 then c else Int.compare s1 s2)
    a;
  a

let check ?(ops = 20_000) ?(seed = 1) ?fault ~workload table =
  if ops < 1 then invalid_arg "Shardmgr.Protocol.check: ops must be >= 1";
  let n = Table.n_servers table in
  let dataset = Table.dataset table in
  let duration = Table.duration_us table in
  let epochs = Table.epoch_count table in
  let stores = Array.init n (fun _ -> Hashtbl.create 1024) in
  let written = Hashtbl.create 1024 in
  let dead = Array.make n false in
  let fault_events =
    match fault with None -> [||] | Some plan -> crashes ~servers:n plan
  in
  let gen =
    Workload.Generator.create ~seed:(seed + 303)
      ~p_large:workload.Workload.Spec.p_large
      ~get_ratio:workload.Workload.Spec.get_ratio dataset
  in
  let puts = ref 0 and gets = ref 0 in
  let fallback_reads = ref 0 and transferred = ref 0 in
  let lost = ref 0 and duplicated = ref 0 and stale = ref 0 in
  let seq = ref 0 in
  let holds s k = Hashtbl.mem stores.(s) k in
  (* Entering epoch [e]: perform the background work the boundary
     stands for. *)
  let enter_epoch e =
    (* Replica churn: a gained mirror receives a full copy of its
       shard's holdings; a dropped one leaves service and clears. *)
    for o = 0 to n - 1 do
      let prev = Table.replicas table ~epoch:(e - 1) o in
      let cur = Table.replicas table ~epoch:e o in
      let was r = Array.exists (fun x -> x = r) prev in
      Array.iter
        (fun r ->
          if r <> o && not (was r) && not dead.(r) then
            Hashtbl.iter
              (fun k v ->
                if List.mem o (Table.write_targets table ~epoch:e k) then begin
                  Hashtbl.replace stores.(r) k v;
                  incr transferred
                end)
              stores.(o))
        cur;
      Array.iter
        (fun r ->
          if r <> o && not (Array.exists (fun x -> x = r) cur) then
            Hashtbl.reset stores.(r))
        prev
    done;
    (* Cutovers: keys whose group just cut move their backlog to the
       new write set; copies outside the new set are retired. *)
    Hashtbl.iter
      (fun k _ ->
        if Table.cut_pending table ~epoch:(e - 1) k
           && not (Table.cut_pending table ~epoch:e k)
        then begin
          let wt = Table.write_targets table ~epoch:e k in
          let src = Table.read_fallback table ~epoch:(e - 1) k in
          let v =
            match Hashtbl.find_opt stores.(src) k with
            | Some v -> Some v
            | None ->
                (* the old owner may already be gone from a previous
                   event; any surviving copy is a valid source *)
                let found = ref None in
                for s = 0 to n - 1 do
                  match Hashtbl.find_opt stores.(s) k with
                  | Some v when !found = None -> found := Some v
                  | _ -> ()
                done;
                !found
          in
          (match v with
          | None -> incr lost (* a written key with no surviving copy *)
          | Some v ->
              List.iter
                (fun s ->
                  if not (holds s k) && not dead.(s) then begin
                    Hashtbl.replace stores.(s) k v;
                    incr transferred
                  end)
                wt);
          for s = 0 to n - 1 do
            if holds s k && not (List.mem s wt) then Hashtbl.remove stores.(s) k
          done
        end)
      written
  in
  let epoch = ref 0 in
  (* A crash loses the server's in-memory store whole; a restart resyncs
     every key the routing currently assigns it from a surviving live
     copy before the server serves again (the copies count in
     [transferred], same as the planned background transfers). *)
  let kill_server s =
    Hashtbl.reset stores.(s);
    dead.(s) <- true
  in
  let recover_server s =
    dead.(s) <- false;
    Hashtbl.iter
      (fun k _ ->
        if
          List.mem s (Table.write_targets table ~epoch:!epoch k)
          && not (holds s k)
        then begin
          let found = ref None in
          for src = 0 to n - 1 do
            if not dead.(src) then
              match Hashtbl.find_opt stores.(src) k with
              | Some v when !found = None -> found := Some v
              | _ -> ()
          done;
          match !found with
          | Some v ->
              Hashtbl.replace stores.(s) k v;
              incr transferred
          | None -> ()
        end)
      written
  in
  (* Replay epoch boundaries and kill/recover instants in time order —
     a recover's resync must see the epoch routing in force at that
     moment. *)
  let fidx = ref 0 in
  let advance_to time =
    let continue = ref true in
    while !continue do
      let te =
        if !epoch + 1 < epochs then Table.epoch_start table (!epoch + 1)
        else infinity
      in
      let tf =
        if !fidx < Array.length fault_events then
          let t, _, _ = fault_events.(!fidx) in
          t
        else infinity
      in
      if te <= tf && te <= time then begin
        incr epoch;
        enter_epoch !epoch
      end
      else if tf <= time then begin
        let _, recover, s = fault_events.(!fidx) in
        incr fidx;
        if recover then recover_server s else kill_server s
      end
      else continue := false
    done
  in
  (* The GET target with crash fallback: when the spread replica is
     dead, the first live mirror of the owning shard serves instead;
     [-1] when the whole replica set is down (the caller then tries the
     migration fallback before declaring the read lost). *)
  let live_read_target ~epoch k =
    let tgt = Table.read_target table ~epoch k in
    if not dead.(tgt) then tgt
    else begin
      let owner = Table.read_owner table ~epoch k in
      let reps = Table.replicas table ~epoch owner in
      let alt = ref (-1) in
      Array.iter (fun s -> if not dead.(s) && !alt = -1 then alt := s) reps;
      !alt
    end
  in
  for i = 1 to ops do
    let time = duration *. float_of_int i /. float_of_int (ops + 1) in
    advance_to time;
    let r = Workload.Generator.next gen in
    let k = r.Workload.Generator.key_id in
    match r.Workload.Generator.op with
    | Workload.Generator.Put ->
        incr puts;
        incr seq;
        Hashtbl.replace written k !seq;
        List.iter
          (fun s -> if not dead.(s) then Hashtbl.replace stores.(s) k !seq)
          (Table.write_targets table ~epoch:!epoch k)
    (* SCANs route like GETs: audit their start key as a point read. *)
    | Workload.Generator.Get | Workload.Generator.Scan -> (
        incr gets;
        let expect = Hashtbl.find_opt written k in
        let tgt = live_read_target ~epoch:!epoch k in
        let v = if tgt = -1 then None else Hashtbl.find_opt stores.(tgt) k in
        match v with
        | Some v -> if expect <> Some v then incr stale
        | None -> (
            let fb = Table.read_fallback table ~epoch:!epoch k in
            if dead.(fb) then begin
              if expect <> None then incr lost
            end
            else
              match Hashtbl.find_opt stores.(fb) k with
              | Some v ->
                  if fb <> tgt then incr fallback_reads;
                  if expect <> Some v then incr stale
              | None -> if expect <> None then incr lost))
  done;
  advance_to duration;
  (* Final audit: every written key readable with its last value on the
     final routing, and resident only inside its final write set. *)
  let final = epochs - 1 in
  Hashtbl.iter
    (fun k v ->
      let tgt = live_read_target ~epoch:final k in
      (match (if tgt = -1 then None else Hashtbl.find_opt stores.(tgt) k) with
      | Some got -> if got <> v then incr stale
      | None -> (
          let fb = Table.read_fallback table ~epoch:final k in
          if dead.(fb) then incr lost
          else
            match Hashtbl.find_opt stores.(fb) k with
            | Some got -> if got <> v then incr stale
            | None -> incr lost));
      let wt = Table.write_targets table ~epoch:final k in
      let extra = ref false in
      for s = 0 to n - 1 do
        if holds s k && not (List.mem s wt) then extra := true
      done;
      if !extra then incr duplicated)
    written;
  {
    ops;
    puts = !puts;
    gets = !gets;
    fallback_reads = !fallback_reads;
    transferred = !transferred;
    lost = !lost;
    duplicated = !duplicated;
    stale = !stale;
  }
