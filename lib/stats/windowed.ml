type window = { start_time : float; samples : Float_vec.t }

type t = { width : float; table : (int, window) Hashtbl.t }

let create ~width () =
  if not (width > 0.0) then invalid_arg "Windowed.create: width must be > 0";
  { width; table = Hashtbl.create 64 }

let add t ~time x =
  if time < 0.0 then invalid_arg "Windowed.add: negative time";
  let idx = int_of_float (time /. t.width) in
  let w =
    match Hashtbl.find_opt t.table idx with
    | Some w -> w
    | None ->
        let w =
          { start_time = float_of_int idx *. t.width; samples = Float_vec.create () }
        in
        Hashtbl.add t.table idx w;
        w
  in
  Float_vec.push w.samples x

let windows t =
  Hashtbl.fold (fun _ w acc -> w :: acc) t.table []
  |> List.sort (fun a b -> Float.compare a.start_time b.start_time)

let quantile_series t q =
  windows t
  |> List.filter_map (fun w ->
         if Float_vec.length w.samples = 0 then None
         else Some (w.start_time, Quantile.of_vec w.samples q))
