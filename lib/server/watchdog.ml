(* Sick epochs in a row that exclude a core. *)
let condemn_after = 2

(* RX depth above which a core that lags its peers is sick. *)
let depth_floor = 64

(* The share of the best peer's progress below which a core lags. *)
let ops_frac = 0.25

type t = {
  cores : int;
  forgive_after : int;
  last_ops : int array;
  sick_streak : int array;
  delta_ops : int array; (* scratch, rewritten every observe *)
  mutable excluded : int;
  mutable excluded_for : int;
}

type verdict = No_change | Exclude of int | Readmit of int

let create ?(forgive_after = 8) ~cores () =
  if cores < 2 then invalid_arg "Watchdog.create: need at least 2 cores";
  if forgive_after < 1 then invalid_arg "Watchdog.create: epochs must be >= 1";
  {
    cores;
    forgive_after;
    last_ops = Array.make cores 0;
    sick_streak = Array.make cores 0;
    delta_ops = Array.make cores 0;
    excluded = -1;
    excluded_for = 0;
  }

let excluded t = t.excluded

let observe t ~ops ~depth =
  for c = 0 to t.cores - 1 do
    t.delta_ops.(c) <- ops.(c) - t.last_ops.(c);
    t.last_ops.(c) <- ops.(c)
  done;
  (* Best per-epoch progress among active peers: the yardstick a healthy
     core should track. *)
  let max_peer = ref 0 in
  for c = 0 to t.cores - 1 do
    if c <> t.excluded && t.delta_ops.(c) > !max_peer then
      max_peer := t.delta_ops.(c)
  done;
  let floor_ops =
    int_of_float (ops_frac *. float_of_int !max_peer)
  in
  for c = 0 to t.cores - 1 do
    if c = t.excluded then t.sick_streak.(c) <- 0
    else if
      depth c > depth_floor
      && (!max_peer = 0 || t.delta_ops.(c) < floor_ops)
    then t.sick_streak.(c) <- t.sick_streak.(c) + 1
    else t.sick_streak.(c) <- 0
  done;
  if t.excluded >= 0 then begin
    t.excluded_for <- t.excluded_for + 1;
    if t.excluded_for >= t.forgive_after then begin
      let c = t.excluded in
      t.excluded <- -1;
      t.excluded_for <- 0;
      t.sick_streak.(c) <- 0;
      Readmit c
    end
    else No_change
  end
  else begin
    (* Condemn the worst offender: longest streak, deepest queue on ties.
       Never drop below 2 active cores. *)
    let worst = ref (-1) in
    for c = 0 to t.cores - 1 do
      if t.sick_streak.(c) >= condemn_after then
        if
          !worst < 0
          || t.sick_streak.(c) > t.sick_streak.(!worst)
          || (t.sick_streak.(c) = t.sick_streak.(!worst) && depth c > depth !worst)
        then worst := c
    done;
    if !worst >= 0 && t.cores > 2 then begin
      t.excluded <- !worst;
      t.excluded_for <- 0;
      Exclude !worst
    end
    else No_change
  end
