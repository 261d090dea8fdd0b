(* Request-fate ledger; see ledger.mli.  Reporting path only: the
   Printf/Format use is reviewed in analyze_allow.txt. *)

type t = { issued : int; legs : (string * int) list }

let names t = List.map fst t.legs

let make ~issued legs =
  let t = { issued; legs } in
  if List.length (List.sort_uniq String.compare (names t)) < List.length legs then
    invalid_arg ("Ledger.make: duplicate leg in " ^ String.concat "," (names t));
  t

let issued t = t.issued

let leg t name =
  match List.assoc_opt name t.legs with
  | Some v -> v
  | None -> invalid_arg ("Ledger.leg: no leg " ^ name)

let sum t names = List.fold_left (fun acc name -> acc + leg t name) 0 names
let total t = sum t (names t)
let telescopes t = t.issued = total t

let check t =
  if telescopes t then Ok ()
  else
    Error
      (Printf.sprintf "issued %d but the legs sum to %d (gap %d)" t.issued (total t)
         (t.issued - total t))

let merge = function
  | [] -> invalid_arg "Ledger.merge: no ledgers"
  | first :: _ as all ->
      let key t = List.sort String.compare (names t) in
      if not (List.for_all (fun t -> List.equal String.equal (key t) (key first)) all) then
        invalid_arg
          ("Ledger.merge: leg names differ from " ^ String.concat "," (names first));
      let add f = List.fold_left (fun acc t -> acc + f t) 0 all in
      {
        issued = add issued;
        legs = List.map (fun name -> (name, add (fun t -> leg t name))) (names first);
      }

let pp fmt t =
  Format.fprintf fmt "issued=%d" t.issued;
  List.iter (fun (name, v) -> Format.fprintf fmt " %s=%d" name v) t.legs;
  if telescopes t then Format.fprintf fmt " (exact)"
  else Format.fprintf fmt " (gap %d)" (t.issued - total t)

let to_json t =
  Json.Obj
    ((("issued", Json.Int t.issued) :: List.map (fun (k, v) -> (k, Json.Int v)) t.legs)
    @ [ ("telescopes", Json.Bool (telescopes t)) ])
