(* Orchestration: load .cmt units, scan them into the program IR (the
   scan also records the per-unit ban findings), resolve roots, run the
   allocation and taint traversals, apply the allowlist, and report.
   [ok] says whether the build may pass. *)

type result = {
  ok : bool;
  alloc_findings : Ir.finding list;
  taint_findings : Ir.finding list;
  ban_findings : Ir.finding list;
  errors : string list;
  units : int;
  hot_roots : int;
  sink_roots : int;
}

let run ~cmt_roots ~roots_file ~allow_file =
  let units, load_errors = Loader.load_roots cmt_roots in
  let prog = Ir.create_program () in
  Scan.scan_units prog units;
  let g = Graph.create prog in
  let roots = Roots.load prog roots_file in
  let allow = Allowlist.load allow_file in
  let collect pass roots =
    let acc = ref [] in
    let (_ : Graph.stats) =
      Graph.traverse g ~pass ~roots ~emit:(fun f -> acc := f :: !acc)
    in
    Report.dedup !acc
  in
  let alloc_all = collect Graph.Alloc_pass roots.Roots.hot_roots in
  let taint_all = collect Graph.Taint_pass roots.Roots.sink_roots in
  (* Allowlist filter: covered findings disappear; then any entry that
     covered nothing is itself an error. *)
  let uncovered all =
    Report.sort (List.filter (fun f -> not (Allowlist.covers allow f)) all)
  in
  let alloc_findings = uncovered alloc_all in
  let taint_findings = uncovered taint_all in
  let ban_findings = uncovered prog.Ir.bans in
  let errors =
    load_errors @ roots.Roots.errors @ allow.Allowlist.errors
    @ Allowlist.stale allow
  in
  {
    ok =
      alloc_findings = [] && taint_findings = [] && ban_findings = []
      && errors = [];
    alloc_findings;
    taint_findings;
    ban_findings;
    errors;
    units = List.length prog.Ir.units;
    hot_roots = List.length roots.Roots.hot_roots;
    sink_roots = List.length roots.Roots.sink_roots;
  }

let print_result r =
  Report.print_findings ~header:"hot-path allocation findings" r.alloc_findings;
  Report.print_findings ~header:"determinism taint findings" r.taint_findings;
  Report.print_findings ~header:"banned identifiers" r.ban_findings;
  List.iter (fun e -> Format.printf "error: %s@." e) r.errors;
  if r.ok then
    Format.printf
      "analyze: OK (%d units, %d hot roots allocation-free, %d sink \
       functions taint-free, no banned identifiers)@."
      r.units r.hot_roots r.sink_roots
  else
    Format.printf
      "analyze: FAILED (%d alloc findings, %d taint findings, %d ban \
       findings, %d errors)@."
      (List.length r.alloc_findings)
      (List.length r.taint_findings)
      (List.length r.ban_findings)
      (List.length r.errors)
