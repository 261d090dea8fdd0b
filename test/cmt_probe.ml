(* Compiled probes for the static checker's tests (test_analyze and
   test_lint): OCaml sources are written into a fresh temp directory,
   compiled to .cmt files with the installed ocamlc, and pushed through
   the real Loader/Scan/Graph pipeline with the same roots/allowlist
   plumbing `dune build @analyze` uses. *)

open Analyze

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = Filename.temp_file "minos_analyze_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)

(* [name] is relative to [dir] (or absolute) and may name directories,
   which are created: the ban pass reads a unit's scope from the source
   path its .cmt records, e.g. ["lib/dsim/probe.ml"]. *)
let write dir name contents =
  let path = if Filename.is_relative name then Filename.concat dir name else name in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)

(* Compile the probe sources in order (later units see earlier .cmi in
   the same directory); each .cmt lands beside its source. *)
let compile dir sources =
  List.iter (fun (name, contents) -> write dir name contents) sources;
  let files =
    String.concat " " (List.map (fun (n, _) -> Filename.quote n) sources)
  in
  let cmd =
    Printf.sprintf "cd %s && ocamlc -bin-annot -w -a -I +unix -c %s"
      (Filename.quote dir) files
  in
  Alcotest.(check int) ("probe compiles: " ^ files) 0 (Sys.command cmd)

(* Run the full analysis over every .cmt under [dir]. *)
let run ?(allow = "") ?(roots = "") dir : Analyze_core.result =
  write dir "roots.txt" roots;
  write dir "allow.txt" allow;
  Analyze_core.run ~cmt_roots:[ dir ]
    ~roots_file:(Filename.concat dir "roots.txt")
    ~allow_file:(Filename.concat dir "allow.txt")

let analyze ?allow ~roots dir sources =
  compile dir sources;
  run ?allow ~roots dir
