type mode = Off | Hedged | Tied
type route = Spread | P2c

type t = {
  mode : mode;
  route : route;
  hedge_delay_us : float;
  hedge_quantile : float;
  min_delay_samples : int;
  detect_us : float option;
  budget_capacity : float;
  budget_earn_per_request : float;
}

let default =
  {
    mode = Hedged;
    route = Spread;
    hedge_delay_us = 25.0;
    hedge_quantile = 0.95;
    min_delay_samples = 64;
    detect_us = None;
    budget_capacity = 65_536.0;
    budget_earn_per_request = 0.1;
  }

let detect_us t (server : Kvserver.Config.t) =
  match t.detect_us with
  | Some d -> d
  | None -> 0.15 *. (server.Kvserver.Config.duration_us -. server.Kvserver.Config.warmup_us)

let mode_name = function Off -> "off" | Hedged -> "hedged" | Tied -> "tied"

let route_name = function Spread -> "spread" | P2c -> "p2c"

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if not (t.hedge_delay_us > 0.0) then err "hedge delay must be > 0"
  else if not (t.hedge_quantile > 0.0 && t.hedge_quantile <= 1.0) then
    err "hedge quantile out of (0, 1]"
  else if t.min_delay_samples < 1 then err "min_delay_samples must be >= 1"
  else if
    match t.detect_us with Some d -> not (d >= 0.0) | None -> false
  then err "detect_us must be >= 0"
  else if not (t.budget_capacity >= 0.0) then err "budget capacity must be >= 0"
  else if not (t.budget_earn_per_request >= 0.0) then
    err "budget earn rate must be >= 0"
  else Ok ()
