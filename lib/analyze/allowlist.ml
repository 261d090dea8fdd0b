(* Reviewed exceptions for analyzer findings: every entry must match at
   least one live finding or the build fails (stale entries rot into
   blanket waivers).

   Line format:

     <containing-function> <category>[:<ident>]   # justification

   where <containing-function> is the function the finding site lives
   in (the last element of the witness path; a ban finding's own
   function, or its unit) and <category> is the finding category,
   optionally pinned to the ident detail.  Example:

     Dsim__Sim.dispatch_head unknown-callee   # handler-table dispatch *)

type entry = { key : string; line : int; mutable used : bool }

type t = { entries : entry list; errors : string list }

let parse_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Ok None
  | [ fn; key ] -> Ok (Some { key = fn ^ " " ^ key; line = lineno; used = false })
  | _ -> Error (Printf.sprintf "line %d: expected '<function> <category[:ident]>'" lineno)

let load path =
  if not (Sys.file_exists path) then { entries = []; errors = [] }
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let entries = ref [] and errors = ref [] in
        let lineno = ref 0 in
        (try
           while true do
             incr lineno;
             let line = input_line ic in
             match parse_line !lineno line with
             | Ok None -> ()
             | Ok (Some e) -> entries := e :: !entries
             | Error e -> errors := e :: !errors
           done
         with End_of_file -> ());
        { entries = List.rev !entries; errors = List.rev !errors })
  end

(* The function a finding is attributed to: last hop of the witness
   path (falls back to the root for witness-less findings). *)
let containing_function (f : Ir.finding) =
  match List.rev f.Ir.witness with (fn, _) :: _ -> fn | [] -> f.Ir.root

(* Returns [true] (and marks the entry used) if the finding is covered. *)
let covers t (f : Ir.finding) =
  let cf = containing_function f in
  let keys = List.map (fun k -> cf ^ " " ^ k) (Ir.allow_keys f) in
  match List.find_opt (fun e -> List.mem e.key keys) t.entries with
  | Some e ->
      e.used <- true;
      true
  | None -> false

let stale t =
  List.filter_map
    (fun e ->
      if e.used then None
      else
        Some
          (Printf.sprintf "stale allowlist entry (line %d): %s" e.line e.key))
    t.entries
