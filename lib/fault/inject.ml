type fate = Pass | Drop | Duplicate | Reorder

(* Events compiled into parallel arrays per kind: queries scan a handful
   of windows with no allocation and no closure captures. *)
type t = {
  rng : Dsim.Rng.t;
  stall_core : int array;
  stall_from : float array;
  stall_until : float array;
  stall_factor : float array;
  net_queue : int array;
  net_from : float array;
  net_until : float array;
  net_drop : float array;
  net_dup : float array;
  net_reorder : float array;
  net_reorder_max : float array;
  sq_queue : int array;
  sq_from : float array;
  sq_until : float array;
  sq_cap : int array;
  cd_from : float array;
  cd_until : float array;
  cc_from : float array;
  cc_until : float array;
  cc_nan : bool array;
  cc_scale : float array;
  dead_server : int array;
  dead_from : float array;
  dead_until : float array;
}

let create ~seed (plan : Plan.t) =
  (match Plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fault.Inject.create: " ^ msg));
  let stalls = ref []
  and nets = ref []
  and squeezes = ref []
  and delays = ref []
  and corrupts = ref []
  and kills = ref []
  and recovers = ref [] in
  List.iter
    (fun ev ->
      match (ev : Plan.event) with
      | Plan.Core_stall { core; from_us; until_us; factor } ->
          stalls := (core, from_us, until_us, factor) :: !stalls
      | Plan.Net_fault { queue; from_us; until_us; drop; dup; reorder; reorder_max_us }
        ->
          nets := (queue, from_us, until_us, drop, dup, reorder, reorder_max_us) :: !nets
      | Plan.Ring_squeeze { queue; from_us; until_us; capacity } ->
          squeezes := (queue, from_us, until_us, capacity) :: !squeezes
      | Plan.Ctrl_delay { from_us; until_us } ->
          delays := (from_us, until_us) :: !delays
      | Plan.Ctrl_corrupt { from_us; until_us; mode } ->
          corrupts := (from_us, until_us, mode) :: !corrupts
      | Plan.Kill_server { server; at_us } -> kills := (server, at_us) :: !kills
      | Plan.Recover_server { server; at_us } ->
          recovers := (server, at_us) :: !recovers)
    plan.Plan.events;
  (* Pair each kill with the earliest matching recover after it (same
     server or a wildcard on either side); unmatched kills stay dead to
     the end of the run. *)
  let deads =
    List.rev_map
      (fun (server, at_us) ->
        let until =
          List.fold_left
            (fun acc (s, r_at) ->
              if (s = server || s = Plan.all || server = Plan.all) && r_at > at_us
              then Float.min acc r_at
              else acc)
            infinity !recovers
        in
        (server, at_us, until))
      !kills
    |> Array.of_list
  in
  let stalls = Array.of_list (List.rev !stalls) in
  let nets = Array.of_list (List.rev !nets) in
  let squeezes = Array.of_list (List.rev !squeezes) in
  let delays = Array.of_list (List.rev !delays) in
  let corrupts = Array.of_list (List.rev !corrupts) in
  {
    rng = Dsim.Rng.create (seed lxor 0x2FA171);
    stall_core = Array.map (fun (c, _, _, _) -> c) stalls;
    stall_from = Array.map (fun (_, f, _, _) -> f) stalls;
    stall_until = Array.map (fun (_, _, u, _) -> u) stalls;
    stall_factor = Array.map (fun (_, _, _, x) -> x) stalls;
    net_queue = Array.map (fun (q, _, _, _, _, _, _) -> q) nets;
    net_from = Array.map (fun (_, f, _, _, _, _, _) -> f) nets;
    net_until = Array.map (fun (_, _, u, _, _, _, _) -> u) nets;
    net_drop = Array.map (fun (_, _, _, d, _, _, _) -> d) nets;
    net_dup = Array.map (fun (_, _, _, _, d, _, _) -> d) nets;
    net_reorder = Array.map (fun (_, _, _, _, _, r, _) -> r) nets;
    net_reorder_max = Array.map (fun (_, _, _, _, _, _, m) -> m) nets;
    sq_queue = Array.map (fun (q, _, _, _) -> q) squeezes;
    sq_from = Array.map (fun (_, f, _, _) -> f) squeezes;
    sq_until = Array.map (fun (_, _, u, _) -> u) squeezes;
    sq_cap = Array.map (fun (_, _, _, c) -> c) squeezes;
    cd_from = Array.map (fun (f, _) -> f) delays;
    cd_until = Array.map (fun (_, u) -> u) delays;
    cc_from = Array.map (fun (f, _, _) -> f) corrupts;
    cc_until = Array.map (fun (_, u, _) -> u) corrupts;
    cc_nan =
      Array.map
        (fun (_, _, mode) -> match mode with Plan.Nan -> true | Plan.Scale _ -> false)
        corrupts;
    cc_scale =
      Array.map
        (fun (_, _, mode) -> match mode with Plan.Nan -> 1.0 | Plan.Scale s -> s)
        corrupts;
    dead_server = Array.map (fun (s, _, _) -> s) deads;
    dead_from = Array.map (fun (_, f, _) -> f) deads;
    dead_until = Array.map (fun (_, _, u) -> u) deads;
  }

let in_window ~from_us ~until_us now = now >= from_us && now < until_us

(* The window scans below are top-level recursions over the index, not
   local [let rec]s: a local recursive function captures [t]/[now] in a
   closure allocated on every query, and these run once per event under
   fault plans — the @analyze zero-allocation proof rejects them. *)

let rec slowdown_scan t core now i acc =
  if i >= Array.length t.stall_core then acc
  else
    let acc =
      if
        (t.stall_core.(i) = core || t.stall_core.(i) = Plan.all)
        && in_window ~from_us:t.stall_from.(i) ~until_us:t.stall_until.(i) now
      then Float.max acc t.stall_factor.(i)
      else acc
    in
    slowdown_scan t core now (i + 1) acc

let slowdown t ~core ~now = slowdown_scan t core now 0 1.0

let rec stall_end_scan t core now i acc =
  if i >= Array.length t.stall_core then acc
  else
    let acc =
      if
        (t.stall_core.(i) = core || t.stall_core.(i) = Plan.all)
        && in_window ~from_us:t.stall_from.(i) ~until_us:t.stall_until.(i) now
      then Float.max acc t.stall_until.(i)
      else acc
    in
    stall_end_scan t core now (i + 1) acc

let stall_end t ~core ~now = stall_end_scan t core now 0 now

(* First matching open net window wins; plans with overlapping windows on
   the same queue are legal but only the first listed applies. *)
let rec net_window_scan t queue now i =
  if i >= Array.length t.net_queue then -1
  else if
    (t.net_queue.(i) = queue || t.net_queue.(i) = Plan.all)
    && in_window ~from_us:t.net_from.(i) ~until_us:t.net_until.(i) now
  then i
  else net_window_scan t queue now (i + 1)

let net_window t ~queue ~now = net_window_scan t queue now 0

let fate t ~queue ~now =
  let i = net_window t ~queue ~now in
  if i < 0 then Pass
  else begin
    let u = Dsim.Rng.unit_float t.rng in
    if u < t.net_drop.(i) then Drop
    else if u < t.net_drop.(i) +. t.net_dup.(i) then Duplicate
    else if u < t.net_drop.(i) +. t.net_dup.(i) +. t.net_reorder.(i) then Reorder
    else Pass
  end

let reorder_delay_us t ~queue ~now =
  let i = net_window t ~queue ~now in
  let max_us = if i < 0 then 1.0 else t.net_reorder_max.(i) in
  let u = Dsim.Rng.unit_float t.rng in
  (1.0 -. u) *. max_us

let rec rx_capacity_scan t queue now i acc =
  if i >= Array.length t.sq_queue then acc
  else
    let acc =
      if
        (t.sq_queue.(i) = queue || t.sq_queue.(i) = Plan.all)
        && in_window ~from_us:t.sq_from.(i) ~until_us:t.sq_until.(i) now
      then min acc t.sq_cap.(i)
      else acc
    in
    rx_capacity_scan t queue now (i + 1) acc

let rx_capacity t ~queue ~now = rx_capacity_scan t queue now 0 max_int

let rec ctrl_delayed_scan t now i =
  if i >= Array.length t.cd_from then false
  else if in_window ~from_us:t.cd_from.(i) ~until_us:t.cd_until.(i) now then
    true
  else ctrl_delayed_scan t now (i + 1)

let ctrl_delayed t ~now = ctrl_delayed_scan t now 0

let rec corrupt_scan t now i acc =
  if i >= Array.length t.cc_from then acc
  else
    let acc =
      if in_window ~from_us:t.cc_from.(i) ~until_us:t.cc_until.(i) now then
        if t.cc_nan.(i) then Float.nan else acc *. t.cc_scale.(i)
      else acc
    in
    corrupt_scan t now (i + 1) acc

let corrupt_threshold t ~now threshold = corrupt_scan t now 0 threshold

let rec dead_scan t server now i =
  if i >= Array.length t.dead_server then false
  else if
    (t.dead_server.(i) = server || t.dead_server.(i) = Plan.all)
    && in_window ~from_us:t.dead_from.(i) ~until_us:t.dead_until.(i) now
  then true
  else dead_scan t server now (i + 1)

let server_dead t ~server ~now = dead_scan t server now 0

let dead_windows t =
  Array.to_list
    (Array.init (Array.length t.dead_server) (fun i ->
         (t.dead_server.(i), t.dead_from.(i), t.dead_until.(i))))
