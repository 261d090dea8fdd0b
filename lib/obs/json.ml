(* Deterministic JSON printer; see json.mli.  Offline rendering only: the
   Printf use is reviewed in analyze_allow.txt. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float v = if Float.is_finite v then Printf.sprintf "%.3f" v else "null"

let string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let is_scalar = function List _ | Obj _ -> false | _ -> true

(* Members are [(key, value)]; a list's members carry no key. *)
let rec add b ~top ~indent = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float f)
  | String s -> Buffer.add_string b (string s)
  | List vs -> members b ~top ~indent "[" "]" (List.map (fun v -> (None, v)) vs)
  | Obj kvs -> members b ~top ~indent "{" "}" (List.map (fun (k, v) -> (Some k, v)) kvs)

and members b ~top ~indent opening closing ms =
  let inline = (not top) && List.for_all (fun (_, v) -> is_scalar v) ms in
  Buffer.add_string b opening;
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      if not inline then Buffer.add_string b ("\n" ^ String.make (indent + 2) ' ')
      else if i > 0 then Buffer.add_char b ' ';
      Option.iter (fun k -> Buffer.add_string b (string k ^ ": ")) k;
      add b ~top:false ~indent:(indent + 2) v)
    ms;
  if (not inline) && ms <> [] then Buffer.add_string b ("\n" ^ String.make indent ' ');
  Buffer.add_string b closing

let to_string v =
  let b = Buffer.create 4096 in
  add b ~top:true ~indent:0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_file path v =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (to_string v))
