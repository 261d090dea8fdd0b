(* .cmt discovery and deserialization.  The analyzer is pointed at one
   or more roots — typically dune's install tree
   (_build/install/default/lib/minos) or a .objs directory — and loads
   every implementation .cmt it can find.  Dot-directories are NOT
   skipped: dune keeps per-library objects under [.libname.objs]. *)

type unit_info = {
  modname : string;  (** compilation unit, e.g. [Dsim__Sim] *)
  source : string;  (** source path as recorded at compile time *)
  structure : Typedtree.structure;
}

let rec cmt_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name -> cmt_files (Filename.concat path name))
  else if Filename.check_suffix path ".cmt" then [ path ]
  else []

(* [Ok None] for a .cmt that holds no implementation (a pack, say); a
   file that cannot be read is an [Error], never a unit quietly left
   out of the proofs. *)
let load_cmt path =
  match Cmt_format.read_cmt path with
  | { cmt_annots = Cmt_format.Implementation structure; cmt_modname; cmt_sourcefile; _ }
    ->
      let source =
        match cmt_sourcefile with Some s -> s | None -> cmt_modname
      in
      Ok (Some { modname = cmt_modname; source; structure })
  | _ -> Ok None
  | exception e ->
      Error (Printf.sprintf "unreadable %s: %s" path (Printexc.to_string e))

(* Load every unit under [roots], deduplicating by unit name (the same
   .cmt can appear both under .objs and in the install tree).  Returns
   the units and one error per root or .cmt that could not be read. *)
let load_roots roots =
  let seen = Hashtbl.create 64 in
  let units = ref [] and errors = ref [] in
  let load path =
    match load_cmt path with
    | Ok (Some u) when not (Hashtbl.mem seen u.modname) ->
        Hashtbl.add seen u.modname ();
        units := u :: !units
    | Ok _ -> ()
    | Error e -> errors := e :: !errors
  in
  List.iter
    (fun root ->
      match cmt_files root with
      | paths -> List.iter load paths
      | exception Sys_error e -> errors := e :: !errors)
    roots;
  (List.rev !units, List.rev !errors)
