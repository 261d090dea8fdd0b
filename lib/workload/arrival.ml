type t =
  | Poisson
  | Diurnal of { period_us : float; amplitude : float }
  | Bursts of { on_us : float; off_us : float; factor : float }

let validate = function
  | Poisson -> Ok ()
  | Diurnal { period_us; amplitude } ->
      if not (period_us > 0.0) then Error "diurnal period must be positive"
      else if not (0.0 <= amplitude && amplitude < 1.0) then
        Error "diurnal amplitude out of [0, 1)"
      else Ok ()
  | Bursts { on_us; off_us; factor } ->
      if not (on_us > 0.0 && off_us >= 0.0) then Error "burst windows must be positive"
      else if not (factor >= 0.0) then Error "burst factor must be >= 0"
      else Ok ()

let two_pi = 8.0 *. atan 1.0

(* Instantaneous offered rate (Mops = requests/us) at absolute time [now]
   for a base rate [base].  Pure in [now], so replaying any prefix of a
   run reproduces the same rates. *)
let rate_at t ~base now =
  match t with
  | Poisson -> base
  | Diurnal { period_us; amplitude } ->
      base *. (1.0 +. (amplitude *. sin (two_pi *. now /. period_us)))
  | Bursts { on_us; off_us; factor } ->
      let cycle = on_us +. off_us in
      let phase = Float.rem now cycle in
      if phase < on_us then base *. factor else base

(* Next time after [now] at which [rate_at] changes regime (used by the
   engine to park when the current rate is 0, e.g. bursts with factor 0
   modelling an on/off source). *)
let next_change t ~base:_ now =
  match t with
  | Poisson -> infinity
  | Diurnal { period_us; _ } ->
      (* Continuously varying; re-examine four times per cycle. *)
      let quarter = period_us /. 4.0 in
      (Float.of_int (int_of_float (now /. quarter)) +. 1.0) *. quarter
  | Bursts { on_us; off_us; _ } ->
      let cycle = on_us +. off_us in
      let k = Float.of_int (int_of_float (now /. cycle)) in
      let phase = now -. (k *. cycle) in
      if phase < on_us then (k *. cycle) +. on_us else (k +. 1.0) *. cycle

let max_rate t ~base =
  match t with
  | Poisson -> base
  | Diurnal { amplitude; _ } -> base *. (1.0 +. amplitude)
  | Bursts { factor; _ } -> base *. Float.max 1.0 factor

(* Deterministic timed arrival stream by Lewis–Shedler thinning: draw
   candidate points from a homogeneous Poisson process at the envelope
   rate and keep each with probability rate(t)/max_rate.  Exact for any
   bounded rate function, and a pure function of the seed. *)
let timestamps t ~base ~n ~seed =
  (match validate t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Arrival.timestamps: " ^ msg));
  if n < 0 then invalid_arg "Arrival.timestamps: negative count";
  if not (base > 0.0) then invalid_arg "Arrival.timestamps: base rate must be > 0";
  let rng = Dsim.Rng.create seed in
  let envelope = max_rate t ~base in
  let ts = Array.make n 0.0 in
  let now = ref 0.0 in
  let i = ref 0 in
  while !i < n do
    now := !now +. Dsim.Rng.exponential rng ~mean:(1.0 /. envelope);
    if Dsim.Rng.unit_float rng *. envelope <= rate_at t ~base !now then begin
      ts.(!i) <- !now;
      incr i
    end
  done;
  ts
