(* Static checker command line:
     minos_analyze --roots FILE --allow FILE CMT_DIR...
   Loads every implementation .cmt under the given directories, checks
   each unit against the per-unit bans, builds the whole-program call
   graph, and proves the hot roots allocation-free and the
   deterministic sinks taint-free.  Exit 0 iff no unreviewed finding
   remains, every .cmt was readable and no allowlist/roots entry is
   stale; the `@analyze` dune alias runs it over the install tree. *)

let usage = "minos_analyze [--roots FILE] [--allow FILE] CMT_DIR..."

let () =
  let roots_file = ref "analyze_roots.txt" in
  let allow_file = ref "analyze_allow.txt" in
  let dirs = ref [] in
  Arg.parse
    [
      ("--roots", Arg.Set_string roots_file, "FILE hot/sink roots");
      ("--allow", Arg.Set_string allow_file, "FILE reviewed exceptions");
    ]
    (fun d -> dirs := d :: !dirs)
    usage;
  let dirs = List.rev !dirs in
  if dirs = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let r =
    Analyze.Analyze_core.run ~cmt_roots:dirs ~roots_file:!roots_file
      ~allow_file:!allow_file
  in
  Analyze.Analyze_core.print_result r;
  exit (if r.Analyze.Analyze_core.ok then 0 else 1)
