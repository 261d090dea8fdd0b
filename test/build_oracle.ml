(* The sequential loops that [Dsim.Dist.Zipf.create] and
   [Workload.Dataset.create] split into parallel tasks, kept as test
   oracles: the split builds must equal these bit for bit. *)

(* The generalized harmonic number, summed in index order. *)
let zeta n theta =
  let sum = ref 0.0 in
  for i = 1 to n do
    sum := !sum +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !sum

let eta n theta =
  let zeta2 = zeta (min n 2) theta in
  (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta)) /. (1.0 -. (zeta2 /. zeta n theta))

(* Every key's size in id order, each draw straight from one generator:
   the small keys' class and size, then the large keys' sizes. *)
let sizes ~seed (spec : Workload.Spec.t) =
  let module S = Workload.Spec in
  let rng = Dsim.Rng.create seed in
  let small =
    Array.init (spec.S.n_keys - spec.S.n_large_keys) (fun _ ->
        if Dsim.Rng.unit_float rng < spec.S.tiny_fraction then
          Dsim.Dist.uniform_int_in rng ~lo:S.tiny_min ~hi:S.tiny_max
        else Dsim.Dist.uniform_int_in rng ~lo:S.small_min ~hi:S.small_max)
  in
  let large =
    Array.init spec.S.n_large_keys (fun _ ->
        Dsim.Dist.uniform_int_in rng ~lo:S.large_min ~hi:spec.S.s_large_max)
  in
  Array.append small large

(* [Par.run] at [jobs] domains. *)
let par_run jobs tasks =
  Minos.Par.set_jobs (Some jobs);
  Fun.protect ~finally:(fun () -> Minos.Par.set_jobs None) (fun () -> Minos.Par.run tasks)

(* Every task, last first. *)
let reverse_run tasks =
  for i = Array.length tasks - 1 downto 0 do
    tasks.(i) ()
  done
