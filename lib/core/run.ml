(* The shared run description; see run.mli. *)

type t = {
  scale : Experiment.scale;
  seed : int;
  workload : Workload.Scenario.t;
  design : Kvserver.Design.t;
  baseline : Kvserver.Design.t;
  offered_mops : float option;
  json : string option;
  trace_out : string option;
}

let default =
  {
    scale = Experiment.full_scale;
    seed = 1;
    workload = Workload.Scenario.default;
    design = Kvserver.Design.minos;
    baseline = Kvserver.Design.hkh;
    offered_mops = None;
    json = None;
    trace_out = None;
  }

let config t = Experiment.config_of_scale t.scale

let flat t =
  match Workload.Scenario.flat t.workload with
  | Ok spec -> spec
  | Error msg -> invalid_arg msg

let spec t =
  let s =
    Experiment.Spec.make t.design
    |> Experiment.Spec.with_workload t.workload
    |> Experiment.with_scale t.scale
    |> Experiment.Spec.with_seed t.seed
  in
  match t.offered_mops with Some l -> Experiment.Spec.with_load l s | None -> s

type 'a report = {
  noun : string;
  print : 'a -> unit;
  to_json : 'a -> Obs.Json.t;
  check : 'a -> (unit, string) result;
}

let emit t r x =
  r.print x;
  Option.iter (Printf.printf "[%s trace written to %s]\n%!" r.noun) t.trace_out;
  Option.iter
    (fun file ->
      Obs.Json.to_file file (r.to_json x);
      Printf.printf "[%s results written to %s]\n%!" r.noun file)
    t.json
