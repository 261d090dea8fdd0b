type t = {
  label : string;
  spec : Spec.t;
  arrival : Arrival.t;
  ttl_us : float option;
  sweep_us : float option;
  scan_ratio : float;
  scan_len : int;
  mem_fraction : float option;
  replay : bool;
}

let default_scan_len = 16

let of_spec ?(label = "custom") spec =
  {
    label;
    spec;
    arrival = Arrival.Poisson;
    ttl_us = None;
    sweep_us = None;
    scan_ratio = 0.0;
    scan_len = default_scan_len;
    mem_fraction = None;
    replay = false;
  }

let default = of_spec ~label:"default" Spec.default

let validate t =
  match Spec.validate t.spec with
  | Error _ as e -> e
  | Ok () -> (
      match Arrival.validate t.arrival with
      | Error _ as e -> e
      | Ok () ->
          if not (0.0 <= t.scan_ratio && t.scan_ratio < 1.0) then
            Error "scan_ratio out of [0, 1)"
          else if t.scan_len < 1 then Error "scan_len must be >= 1"
          else if t.scan_ratio = 0.0 && t.scan_len <> default_scan_len then
            (* Without SCANs the length is never read; the knob would be
               silently dropped. *)
            Error "scan_len needs scan_ratio > 0: no request is a SCAN"
          else if (match t.ttl_us with Some x -> not (x > 0.0) | None -> false) then
            Error "ttl_us must be positive"
          else if (match t.sweep_us with Some x -> not (x > 0.0) | None -> false)
          then Error "sweep_us must be positive"
          else if t.sweep_us <> None && t.ttl_us = None && t.mem_fraction = None then
            (* Only a TTL or a memory budget gives the sweep anything to
               reclaim; without one the knob would be silently dropped. *)
            Error "sweep_ms needs ttl_ms or mem_fraction: there is nothing to sweep"
          else if
            match t.mem_fraction with
            | Some f -> not (f > 0.0) || f > 1.0
            | None -> false
          then Error "mem_fraction out of (0, 1]"
          else Ok ())

let flat t =
  let extras =
    List.filter_map
      (fun (on, name) -> if on then Some name else None)
      [
        ((match t.arrival with Arrival.Poisson -> false | _ -> true), "arrival");
        (t.ttl_us <> None, "ttl");
        (t.scan_ratio <> 0.0, "scans");
        (t.mem_fraction <> None, "mem_fraction");
        (t.replay, "replay");
      ]
  in
  if extras = [] then Ok t.spec
  else
    Error
      (Printf.sprintf
         "scenario %s has extras only a single engine honours (%s); pick a \
          flat workload"
         t.label (String.concat ", " extras))

let generator ?(seed = 11) t dataset =
  Generator.create ~seed ~p_large:t.spec.Spec.p_large ~get_ratio:t.spec.Spec.get_ratio
    ~scan_ratio:t.scan_ratio ~scan_len:t.scan_len dataset

let capture ?(seed = 11) t dataset ~rate_mops ~n =
  let gen = generator ~seed:(seed + 101) t dataset in
  let ts = Arrival.timestamps t.arrival ~base:rate_mops ~n ~seed in
  let reqs = Array.init n (fun _ -> Generator.next gen) in
  Trace.of_timed reqs ts

(* ---------------- registry ---------------- *)

type info = {
  name : string;
  aliases : string list;
  summary : string;
  knobs : (string * string) list;
  base : t;
}

(* Knobs shared by every scenario; entries may document extras but the
   parser below accepts this whole set uniformly. *)
let common_knobs =
  [
    ("p_large", "percentage of large requests (0..100)");
    ("s_large", "max large item size, bytes");
    ("get_ratio", "fraction of GETs (0..1)");
    ("n_keys", "dataset keys");
    ("ttl_ms", "PUT time-to-live, ms (0 disables)");
    ("sweep_ms", "background expiry-sweep period, ms (0 = lazy only)");
    ("scan_ratio", "fraction of requests that are SCANs (0..1)");
    ("scan_len", "keys per SCAN");
    ("mem_fraction", "memory budget / dataset bytes (0..1]; <1 forces eviction");
    ("amplitude", "diurnal amplitude (0..1)");
    ("period_ms", "diurnal period, ms");
    ("on_ms", "burst on-window, ms");
    ("off_ms", "burst off-window, ms");
    ("factor", "burst rate multiplier");
    ("replay", "run via a captured timed trace (true/false)");
  ]

let registry : info list ref = ref []

let spellings (i : info) =
  String.lowercase_ascii i.name :: List.map String.lowercase_ascii i.aliases

let register i =
  let taken = List.concat_map spellings !registry in
  List.iter
    (fun s ->
      if List.exists (String.equal s) taken then
        invalid_arg ("Scenario.register: name or alias already taken: " ^ s))
    (spellings i);
  (match validate i.base with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scenario.register: " ^ i.name ^ ": " ^ msg));
  registry := !registry @ [ i ]

let all () = !registry

let find s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun i -> List.exists (String.equal s) (spellings i)) !registry

(* ---------------- knob application ---------------- *)

let float_knob v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "not a number: %S" v)

let int_knob v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "not an integer: %S" v)

let bool_knob v =
  match String.lowercase_ascii v with
  | "true" | "1" | "yes" -> Ok true
  | "false" | "0" | "no" -> Ok false
  | _ -> Error (Printf.sprintf "not a boolean: %S" v)

let ms_to_us x = x *. 1000.0

let opt_of_pos x = if x > 0.0 then Some x else None

(* A knob whose value becomes an optional feature ([opt_of_pos]) must be
   finite: NaN or infinity would silently switch the feature off. *)
let finite_knob k v =
  Result.bind (float_knob v) (fun f ->
      if Float.is_finite f then Ok f else Error (Printf.sprintf "%s must be finite" k))

let apply_knob t (k, v) =
  let ( let* ) = Result.bind in
  match String.lowercase_ascii k with
  | "p_large" ->
      let* f = float_knob v in
      Ok { t with spec = { t.spec with Spec.p_large = f } }
  | "s_large" ->
      let* i = int_knob v in
      Ok { t with spec = { t.spec with Spec.s_large_max = i } }
  | "get_ratio" ->
      let* f = float_knob v in
      Ok { t with spec = { t.spec with Spec.get_ratio = f } }
  | "n_keys" ->
      let* i = int_knob v in
      (* Scale the large population with the dataset, as the builtins do. *)
      let n_large = max 1 (i * t.spec.Spec.n_large_keys / max 1 t.spec.Spec.n_keys) in
      Ok { t with spec = { t.spec with Spec.n_keys = i; n_large_keys = n_large } }
  | "ttl_ms" ->
      let* f = finite_knob "ttl_ms" v in
      Ok { t with ttl_us = opt_of_pos (ms_to_us f) }
  | "sweep_ms" ->
      let* f = finite_knob "sweep_ms" v in
      Ok { t with sweep_us = opt_of_pos (ms_to_us f) }
  | "scan_ratio" ->
      let* f = float_knob v in
      Ok { t with scan_ratio = f }
  | "scan_len" ->
      let* i = int_knob v in
      Ok { t with scan_len = i }
  | "mem_fraction" ->
      let* f = finite_knob "mem_fraction" v in
      Ok { t with mem_fraction = (if f >= 1.0 then None else opt_of_pos f) }
  | "amplitude" -> (
      let* f = float_knob v in
      match t.arrival with
      | Arrival.Diurnal d -> Ok { t with arrival = Arrival.Diurnal { d with amplitude = f } }
      | Arrival.Poisson | Arrival.Bursts _ ->
          Error "amplitude only applies to a diurnal scenario")
  | "period_ms" -> (
      let* f = float_knob v in
      match t.arrival with
      | Arrival.Diurnal d ->
          Ok { t with arrival = Arrival.Diurnal { d with period_us = ms_to_us f } }
      | Arrival.Poisson | Arrival.Bursts _ ->
          Error "period_ms only applies to a diurnal scenario")
  | "on_ms" -> (
      let* f = float_knob v in
      match t.arrival with
      | Arrival.Bursts b -> Ok { t with arrival = Arrival.Bursts { b with on_us = ms_to_us f } }
      | Arrival.Poisson | Arrival.Diurnal _ ->
          Error "on_ms only applies to a bursty scenario")
  | "off_ms" -> (
      let* f = float_knob v in
      match t.arrival with
      | Arrival.Bursts b ->
          Ok { t with arrival = Arrival.Bursts { b with off_us = ms_to_us f } }
      | Arrival.Poisson | Arrival.Diurnal _ ->
          Error "off_ms only applies to a bursty scenario")
  | "factor" -> (
      let* f = float_knob v in
      match t.arrival with
      | Arrival.Bursts b -> Ok { t with arrival = Arrival.Bursts { b with factor = f } }
      | Arrival.Poisson | Arrival.Diurnal _ ->
          Error "factor only applies to a bursty scenario")
  | "replay" ->
      let* b = bool_knob v in
      Ok { t with replay = b }
  | k -> Error (Printf.sprintf "unknown knob %S" k)

let make info overrides =
  let rec go t = function
    | [] -> ( match validate t with Ok () -> Ok t | Error msg -> Error msg)
    | kv :: rest -> ( match apply_knob t kv with Ok t -> go t rest | Error _ as e -> e)
  in
  go info.base overrides

let parse s =
  match String.split_on_char ',' (String.trim s) with
  | [] | [ "" ] -> Error "empty workload name"
  | name :: rest -> (
      match find name with
      | None -> Error (Printf.sprintf "unknown workload %S (try `minos workloads`)" name)
      | Some info -> (
          let kvs =
            List.filter_map
              (fun part ->
                let part = String.trim part in
                if part = "" then None
                else
                  match String.index_opt part '=' with
                  | None -> Some (part, "")
                  | Some i ->
                      Some
                        ( String.sub part 0 i,
                          String.sub part (i + 1) (String.length part - i - 1) ))
              rest
          in
          match make info kvs with
          | Ok t -> Ok t
          | Error msg -> Error (name ^ ": " ^ msg)))

(* ---------------- builtins ---------------- *)

(* The scenario-specific entries use a 200k-key dataset (large population
   scaled in proportion) so suite runs and CI smokes stay cheap; the
   paper-facing entries keep the exact specs the goldens were produced
   with. *)
let scenario_spec = { Spec.default with Spec.n_keys = 200_000; n_large_keys = 125 }

let builtin name ?(aliases = []) ~summary ?(knobs = []) base =
  { name; aliases; summary; knobs; base = { base with label = name } }

let () =
  List.iter register
    [
      builtin "default" ~aliases:[ "paper-default" ]
        ~summary:"the paper's synthetic bimodal mix (95:5 GET:PUT, zipf 0.99)"
        (of_spec Spec.default);
      builtin "paper" ~aliases:[ "paper-scale" ]
        ~summary:"full 16M-key dataset (10k large keys)"
        (of_spec Spec.paper_scale);
      builtin "write-intensive"
        ~aliases:[ "write_intensive"; "write" ]
        ~summary:"50:50 GET:PUT mix (paper §6.2)"
        (of_spec Spec.write_intensive);
      builtin "diurnal"
        ~summary:"sinusoidal day/night load ramp over the default mix"
        ~knobs:[ ("amplitude", "rate swing (0..1)"); ("period_ms", "cycle length") ]
        {
          (of_spec scenario_spec) with
          arrival = Arrival.Diurnal { period_us = 100_000.0; amplitude = 0.6 };
        };
      builtin "bursts"
        ~summary:"square-wave bursts: 4x the base rate, 5 ms on / 20 ms off"
        ~knobs:
          [
            ("on_ms", "burst window"); ("off_ms", "quiet window");
            ("factor", "burst multiplier");
          ]
        {
          (of_spec scenario_spec) with
          arrival = Arrival.Bursts { on_us = 5_000.0; off_us = 20_000.0; factor = 4.0 };
        };
      builtin "ttl-churn" ~aliases:[ "ttl" ]
        ~summary:"write-heavy mix where every PUT carries a 50 ms TTL"
        ~knobs:[ ("ttl_ms", "time-to-live"); ("sweep_ms", "background sweep period") ]
        {
          (of_spec { scenario_spec with Spec.get_ratio = 0.7 }) with
          ttl_us = Some 50_000.0;
          sweep_us = Some 5_000.0;
        };
      builtin "scan-heavy" ~aliases:[ "scans"; "scan" ]
        ~summary:"2% ordered 32-key SCANs — large-ish by construction"
        ~knobs:[ ("scan_ratio", "SCAN fraction"); ("scan_len", "keys per SCAN") ]
        { (of_spec scenario_spec) with scan_ratio = 0.02; scan_len = 32 };
      builtin "cold-tier" ~aliases:[ "larger-than-memory"; "ltm" ]
        ~summary:
          "larger-than-memory: 50% memory budget + TTL churn under a replayed \
           diurnal trace"
        ~knobs:
          [
            ("mem_fraction", "budget / dataset bytes");
            ("ttl_ms", "time-to-live");
            ("replay", "capture + replay a timed trace");
          ]
        {
          (of_spec { scenario_spec with Spec.get_ratio = 0.9 }) with
          arrival = Arrival.Diurnal { period_us = 100_000.0; amplitude = 0.5 };
          ttl_us = Some 150_000.0;
          sweep_us = Some 10_000.0;
          mem_fraction = Some 0.5;
          replay = true;
        };
    ]

let pp fmt t =
  Format.fprintf fmt "%s: %a arrival=%a" t.label Spec.pp t.spec Arrival.pp t.arrival;
  (match t.ttl_us with
  | Some x -> Format.fprintf fmt " ttl=%.0fus" x
  | None -> ());
  (match t.sweep_us with
  | Some x -> Format.fprintf fmt " sweep=%.0fus" x
  | None -> ());
  if t.scan_ratio > 0.0 then
    Format.fprintf fmt " scans=%.1f%%x%d" (100.0 *. t.scan_ratio) t.scan_len;
  (match t.mem_fraction with
  | Some f -> Format.fprintf fmt " mem=%.0f%%" (100.0 *. f)
  | None -> ());
  if t.replay then Format.fprintf fmt " (trace replay)"
