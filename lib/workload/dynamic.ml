type phase = { duration_us : float; p_large : float }

type t = { phases : phase array }

let create phases =
  if phases = [] then invalid_arg "Dynamic.create: need at least one phase";
  List.iter
    (fun p ->
      if not (p.duration_us > 0.0) then
        invalid_arg "Dynamic.create: phase durations must be positive")
    phases;
  { phases = Array.of_list phases }

let paper_schedule ~phase_us =
  create
    (List.map
       (fun p -> { duration_us = phase_us; p_large = p })
       [ 0.125; 0.25; 0.5; 0.75; 0.5; 0.25; 0.125 ])

let total_duration t =
  Array.fold_left (fun acc p -> acc +. p.duration_us) 0.0 t.phases

let p_large_at t time =
  let n = Array.length t.phases in
  let rec go i acc =
    if i >= n then t.phases.(n - 1).p_large
    else begin
      let acc' = acc +. t.phases.(i).duration_us in
      if time < acc' then t.phases.(i).p_large else go (i + 1) acc'
    end
  in
  go 0 0.0
