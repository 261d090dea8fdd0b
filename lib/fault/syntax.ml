type fields = (string * string) list

let all = -1
let fail line msg = Error ("line " ^ string_of_int line ^ ": " ^ msg)
let ( let* ) = Result.bind

let split_fields s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun f -> f <> "")

let parse_fields line fields =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest -> (
        match String.index_opt f '=' with
        | None -> fail line ("expected key=value, got '" ^ f ^ "'")
        | Some i ->
            let k = String.sub f 0 i in
            let v = String.sub f (i + 1) (String.length f - i - 1) in
            if List.mem_assoc k acc then fail line ("repeated key '" ^ k ^ "'")
            else go ((k, v) :: acc) rest)
  in
  go [] fields

let check_keys line keyword keys fields =
  match keys keyword with
  | None -> Ok ()
  | Some keys -> (
      match List.find_opt (fun (k, _) -> not (List.mem k keys)) fields with
      | Some (k, _) -> fail line ("unknown key '" ^ k ^ "' for " ^ keyword)
      | None -> Ok ())

let parse ~name ~keys ~event src =
  let rec go n acc name = function
    | [] -> Ok (name, List.rev acc)
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line
        in
        match split_fields line with
        | [] -> go (n + 1) acc name rest
        | [ "plan"; plan_name ] -> go (n + 1) acc plan_name rest
        | keyword :: fields ->
            let* fields = parse_fields n fields in
            let* () = check_keys n keyword keys fields in
            let* ev = event n keyword fields in
            go (n + 1) (ev :: acc) name rest)
  in
  go 1 [] name (String.split_on_char '\n' src)

let required line key fields ~default read =
  match List.assoc_opt key fields with
  | None -> (
      match default with Some d -> Ok d | None -> fail line ("missing " ^ key ^ "="))
  | Some v -> read v

let float line key fields ~default =
  required line key fields ~default (function
    | "end" | "inf" -> Ok infinity
    | v -> (
        match float_of_string_opt v with
        | Some f -> Ok f
        | None -> fail line ("bad float for " ^ key ^ ": '" ^ v ^ "'")))

let index line key fields ~default =
  required line key fields ~default (function
    | "*" -> Ok all
    | v -> (
        match int_of_string_opt v with
        | Some i when i >= 0 -> Ok i
        | Some _ | None -> fail line ("bad index for " ^ key ^ ": '" ^ v ^ "'")))

let int line key fields =
  required line key fields ~default:None (fun v ->
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> fail line ("bad int for " ^ key ^ ": '" ^ v ^ "'"))

(* [string_of_float] keeps 12 significant digits; fall back to 17 (exact
   for every double) when that would not read back as the same value. *)
let float_to_string v =
  let s = string_of_float v in
  if Float.equal (float_of_string s) v then s else Printf.sprintf "%.17g" v

let render ~name ~event events =
  let b = Buffer.create 256 in
  Buffer.add_string b ("plan " ^ name ^ "\n");
  List.iter
    (fun ev ->
      let keyword, fields = event ev in
      Buffer.add_string b keyword;
      List.iter
        (fun (k, v) ->
          Buffer.add_char b ' ';
          Buffer.add_string b k;
          Buffer.add_char b '=';
          Buffer.add_string b v)
        fields;
      Buffer.add_char b '\n')
    events;
  Buffer.contents b
