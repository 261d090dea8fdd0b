(* The cluster run; its two cases (thinned engines, or a router over
   engines sharing one simulation) are described in run.mli. *)

type router = {
  arrive : Workload.Generator.t -> unit;
  kill : int -> unit;
  detect : int -> unit;
  recover : int -> unit;
  detect_us : float;
}

type t = {
  design_name : string;
  seed : int;
  metrics : Kvcluster.Metrics.t;
  latencies : Stats.Float_vec.t array; (* per-engine raw samples *)
  p99_series : (float * float) list;
      (* cluster-level per-window p99: union of every engine's window
         samples, merged by window start *)
  shard_series : (float * float) list array;
      (* per-engine per-window p99 (the manager's input) *)
  mig_p99_us : float; (* worst window p99 inside a migration window *)
  steady_p99_us : float; (* worst window p99 outside them *)
  protocol : Protocol.result;
}

(* Merge per-engine windows into cluster-level ones.  Window starts are
   exact multiples of the shared width, so grouping by float equality is
   exact; engines are visited in index order, keeping the merged sample
   order independent of MINOS_JOBS. *)
let merge_windows per_engine =
  let all =
    List.concat_map
      (fun ws ->
        List.map (fun w -> (w.Stats.Windowed.start_time, w.samples)) ws)
      (Array.to_list per_engine)
  in
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) all
  in
  let rec group = function
    | [] -> []
    | (st, v) :: rest ->
        let merged = Stats.Float_vec.create () in
        Stats.Float_vec.append merged v;
        let rec take = function
          | (st', v') :: rest' when Float.compare st st' = 0 ->
              Stats.Float_vec.append merged v';
              take rest'
          | rest' -> rest'
        in
        let rest = take rest in
        (st, merged) :: group rest
  in
  group sorted

let p99_of_windows ws =
  List.filter_map
    (fun (st, v) ->
      if Stats.Float_vec.length v = 0 then None
      else Some (st, Stats.Quantile.of_vec v 0.99))
    ws

(* Worst window p99 inside / outside the table's migration windows. *)
let split_p99 ~width ~migrations series =
  let in_migration st =
    List.exists (fun (a, b) -> st < b && st +. width > a) migrations
  in
  let mig = ref Float.nan and steady = ref Float.nan in
  List.iter
    (fun (st, p) ->
      let slot = if in_migration st then mig else steady in
      if not (!slot >= p) then slot := p)
    series;
  (!mig, !steady)

(* Whether the table routes the generator's last draw to server [s] at
   [now]: the engine's per-arrival thinning filter, allocation-free. *)
let routed table s ~now gen =
  Table.routes_to table ~now
    ~get:(Workload.Generator.last_op gen = Workload.Generator.Get)
    ~key:(Workload.Generator.last_key_id gen) s

let windows eng =
  match Kvserver.Engine.windowed eng with
  | None -> []
  | Some w -> Stats.Windowed.windows w

(* One engine per server id the table ever routes to, each replaying the
   shared seeded request stream thinned to the keys the table routes to
   it *at the request's simulated arrival time*, at the epoch rate the
   compile-time probe measured.  Routing a Poisson stream splits it into
   independent Poisson streams, so each server is simulated as its own
   engine at its routed share of the offered load; a not-yet-added
   server parks at rate 0, a removed one after its migration ends.
   Everything an engine draws is a pure function of (seed, table, server
   id), so the run is reproducible at any MINOS_JOBS. *)
let thinned ~seed ?fault ?instrument ~map ~cfg ~design ~workload table =
  let dataset = Table.dataset table in
  let shard_job s =
    let gen =
      Workload.Generator.create ~seed:(seed + 101)
        ~p_large:workload.Workload.Spec.p_large
        ~get_ratio:workload.Workload.Spec.get_ratio dataset
    in
    (* Thin the shared stream down to what the table routes to [s] at
       the request's arrival time, at the table's rate for [s]. *)
    let intake =
      {
        Kvserver.Engine.content =
          Generated { dynamic = None; keep = Some (routed table s) };
        clock =
          Poisson
            (Some
               {
                 rate_at = (fun now -> Table.rate_at table ~now s);
                 next_change = (fun now -> Table.next_change table ~now);
               });
      }
    in
    let cfg_s = { cfg with Kvserver.Config.seed = cfg.Kvserver.Config.seed + seed + (97 * s) } in
    let obs = match instrument with None -> None | Some f -> Some (f s) in
    let fault_inj =
      match fault with
      | None -> None
      | Some plan -> Some (Fault.Inject.create ~seed:(seed + (1013 * s)) plan)
    in
    (* The label only feeds the metrics' offered-load fields (pacing
       drives the actual gaps); a never-routed server gets an epsilon to
       satisfy create's positivity check. *)
    let label = Float.max 1e-9 (Table.avg_rate table s) in
    let eng =
      Kvserver.Engine.create ~intake ?obs ?fault:fault_inj ~server:s cfg_s gen
        ~offered_mops:label
    in
    let m = Kvserver.Engine.run eng (Kvserver.Design.make design) in
    (m, Kvserver.Engine.raw_latencies eng, windows eng)
  in
  let n = Table.n_servers table in
  let results = Array.of_list (map shard_job (List.init n Fun.id)) in
  if Array.length results <> n then
    invalid_arg "Shardmgr.Run.run: map must preserve length";
  results

(* Every engine caller-fed on one simulation, sharing one injector; one
   seeded Poisson stream at the table's offered load feeds the router. *)
let shared ~seed ?fault ~cfg ~design ~workload table make_router =
  let n = Table.n_servers table in
  let dataset = Table.dataset table in
  let duration = cfg.Kvserver.Config.duration_us in
  let sim = Dsim.Sim.create ~seed () in
  let inj = Option.map (fun p -> Fault.Inject.create ~seed:(seed lxor 0x51ED) p) fault in
  let arrival_rng = Dsim.Sim.fork_rng sim in
  let engines =
    Array.init n (fun s -> Kvserver.Engine.attach ?fault:inj ~server:s sim cfg dataset)
  in
  Array.iter (fun eng -> Kvserver.Engine.start eng (Kvserver.Design.make design)) engines;
  let router = make_router sim engines in
  let gen =
    Workload.Generator.create ~seed:(seed lxor 0x9E41)
      ~p_large:workload.Workload.Spec.p_large
      ~get_ratio:workload.Workload.Spec.get_ratio dataset
  in
  let mean = 1.0 /. Table.offered_mops table in
  let tag = ref (-1) in
  let next () =
    Dsim.Sim.schedule_call_after sim (Dsim.Rng.exponential arrival_rng ~mean) ~tag:!tag
      ~i:0 ~j:0
  in
  tag :=
    Dsim.Sim.register_handler sim (fun _ _ ->
        if Dsim.Sim.now sim < duration then begin
          Workload.Generator.next_into gen;
          router.arrive gen;
          next ()
        end);
  (* The plan's crashes, as the router's kill / detect / recover
     instants (those past the run's end never fire). *)
  Option.iter
    (fun plan ->
      Array.iter
        (fun (at, recover, s) ->
          if recover then Dsim.Sim.schedule_at sim at (fun () -> router.recover s)
          else begin
            Dsim.Sim.schedule_at sim at (fun () -> router.kill s);
            Dsim.Sim.schedule_at sim (at +. router.detect_us) (fun () -> router.detect s)
          end)
        (Protocol.crashes ~servers:n plan))
    fault;
  next ();
  Dsim.Sim.run sim ~until:duration;
  Array.map
    (fun eng ->
      (Kvserver.Engine.finish eng, Kvserver.Engine.raw_latencies eng, windows eng))
    engines

let run ?(seed = 1) ?fault ?instrument ?(map = fun f xs -> List.map f xs) ?router ~cfg
    ~design ~workload ~table () =
  let n = Table.n_servers table in
  if cfg.Kvserver.Config.duration_us <> Table.duration_us table then
    invalid_arg "Shardmgr.Run.run: cfg duration differs from the table's";
  let results =
    match router with
    | None -> thinned ~seed ?fault ?instrument ~map ~cfg ~design ~workload table
    | Some _ when Option.is_some instrument ->
        invalid_arg "Shardmgr.Run.run: a router's caller-fed engines take no flight recorder"
    | Some make_router -> shared ~seed ?fault ~cfg ~design ~workload table make_router
  in
  let shard_share = Array.init n (fun s -> Table.avg_share table s) in
  let metrics =
    Kvcluster.Metrics.aggregate ~shard_share
      (Array.map (fun (m, v, _) -> (m, v)) results)
  in
  let per_engine = Array.map (fun (_, _, w) -> w) results in
  let p99_series = p99_of_windows (merge_windows per_engine) in
  let shard_series =
    Array.map
      (fun ws ->
        p99_of_windows
          (List.map (fun w -> (w.Stats.Windowed.start_time, w.samples)) ws))
      per_engine
  in
  let mig_p99_us, steady_p99_us =
    match cfg.Kvserver.Config.window_us with
    | None -> (Float.nan, Float.nan)
    | Some width ->
        split_p99 ~width ~migrations:(Table.migration_windows table) p99_series
  in
  let protocol = Protocol.check ~seed ?fault ~workload table in
  {
    design_name = Kvserver.Design.name design;
    seed;
    metrics;
    latencies = Array.map (fun (_, v, _) -> v) results;
    p99_series;
    shard_series;
    mig_p99_us;
    steady_p99_us;
    protocol;
  }
