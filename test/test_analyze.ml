(* End-to-end tests for the interprocedural analyzer (lib/analyze).
   Each probe program is compiled to .cmt files with the installed
   ocamlc, then pushed through the real Loader/Scan/Graph pipeline with
   the same roots/allowlist plumbing `dune build @analyze` uses
   ({!Cmt_probe}; the per-unit bans are tested in test_lint):

   - functor instantiation resolves the body against the argument;
   - first-class module calls resolve against every packed module;
   - higher-order heads yield unknown-callee verdicts;
   - Simplif-eliminable refs pass, captured refs are findings;
   - taint sources reach sinks through calls;
   - allowlist suppression works and stale entries fail the run. *)

open Analyze

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let with_dir = Cmt_probe.with_dir
let analyze = Cmt_probe.analyze

let containing (f : Ir.finding) =
  match List.rev f.Ir.witness with (fn, _) :: _ -> fn | [] -> f.Ir.root

let test_simplif_refs () =
  with_dir (fun dir ->
      let r =
        analyze dir
          ~roots:"hot Probe.sum\nhot Probe.captured\n"
          [
            ( "probe.ml",
              {|
let sum n =
  let acc = ref 0 in
  let i = ref 0 in
  while !i < n do
    acc := !acc + !i;
    incr i
  done;
  !acc

let captured n =
  let r = ref 0 in
  let bump () = r := !r + 1 in
  bump ();
  !r + n
|}
            );
          ]
      in
      check (Alcotest.list string) "no roots/allow errors" [] r.errors;
      (* [sum]'s refs are eliminated by Simplif: no finding may name it. *)
      check int "eliminable ref loop is allocation-free" 0
        (List.length
           (List.filter (fun f -> f.Ir.root = "Probe.sum") r.alloc_findings));
      (* [captured]'s ref is captured by a closure: the cell is real. *)
      check bool "captured ref is a finding" true
        (List.exists
           (fun f -> f.Ir.root = "Probe.captured" && f.Ir.category = "alloc-ref")
           r.alloc_findings))

let test_functor_instantiation () =
  with_dir (fun dir ->
      let r =
        analyze dir ~roots:"hot Probe.hot_entry\n"
          [
            ( "probe.ml",
              {|
module type S = sig val make : int -> int array end
module Impl = struct let make n = Array.make n 0 end
module Make (A : S) = struct let step n = Array.length (A.make n) end
module M = Make (Impl)
let hot_entry n = M.step n
|}
            );
          ]
      in
      check (Alcotest.list string) "no roots/allow errors" [] r.errors;
      (* The [A.make] call inside the functor body must resolve through
         the instantiation to [Impl.make] and surface its Array.make. *)
      let hits =
        List.filter
          (fun f ->
            f.Ir.category = "alloc-stdlib" && f.Ir.ident = "Array.make")
          r.alloc_findings
      in
      check int "Array.make reached through the functor" 1 (List.length hits);
      let f = List.hd hits in
      check string "finding sits in the instantiated argument"
        "Probe.Impl.make" (containing f);
      check string "rooted at the entry point" "Probe.hot_entry" f.Ir.root;
      check int "witness spells the instantiation path" 3
        (List.length f.Ir.witness))

let test_first_class_dispatch () =
  with_dir (fun dir ->
      let r =
        analyze dir ~roots:"hot Probe.drive\n"
          [
            ("probe_impl.ml", "let go n = [ n ]\n");
            ( "probe.ml",
              {|
module type D = sig val go : int -> int list end
let pick () = (module Probe_impl : D)
let drive n =
  let (module M) = pick () in
  M.go n
|}
            );
          ]
      in
      check (Alcotest.list string) "no roots/allow errors" [] r.errors;
      (* [M.go] is a first-class call: every packed module providing
         [go] is a candidate, so the list cons in Probe_impl is found. *)
      check bool "packed module's allocation found" true
        (List.exists
           (fun f ->
             f.Ir.category = "alloc-construct"
             && containing f = "Probe_impl.go"
             && f.Ir.root = "Probe.drive")
           r.alloc_findings))

let test_higher_order_and_allowlist () =
  let sources = [ ("probe.ml", "let apply f x = f x\n") ] in
  let roots = "hot Probe.apply\n" in
  with_dir (fun dir ->
      let r = analyze dir ~roots sources in
      check bool "unknown callee fails the run" false r.ok;
      check bool "higher-order head is an unknown-callee verdict" true
        (List.exists
           (fun f -> f.Ir.category = "unknown-callee" && f.Ir.ident = "f")
           r.alloc_findings));
  with_dir (fun dir ->
      let r =
        analyze dir ~roots
          ~allow:"Probe.apply unknown-callee:f  # reviewed dispatch\n" sources
      in
      check bool "allowlisted verdict passes" true r.ok;
      check int "finding suppressed" 0 (List.length r.alloc_findings));
  with_dir (fun dir ->
      let r =
        analyze dir ~roots
          ~allow:
            "Probe.apply unknown-callee:f  # reviewed dispatch\n\
             Probe.apply alloc-ref  # covers nothing\n"
          sources
      in
      check bool "stale allowlist entry fails the run" false r.ok;
      check int "stale entry reported" 1 (List.length r.errors))

let test_taint_reaches_sink () =
  with_dir (fun dir ->
      let r =
        analyze dir ~roots:"sink Probe\n"
          [
            ( "probe.ml",
              {|
let pure x = x + 1
let stamp () = Sys.time ()
let write_row x = ignore (stamp ()); pure x
|}
            );
          ]
      in
      check bool "wall-clock read fails the sink proof" false r.ok;
      check bool "Sys.time is the reported source" true
        (List.exists
           (fun f -> f.Ir.category = "taint" && f.Ir.ident = "Sys.time")
           r.taint_findings);
      check int "three sink functions" 3 r.sink_roots)

let test_attribute_roots_and_rot () =
  with_dir (fun dir ->
      let sources =
        [ ("probe.ml", "let[@hot] spin n = Array.make n 0\n") ]
      in
      let r = analyze dir ~roots:"# no file roots\n" sources in
      check int "[@hot] attribute registers a root" 1 r.hot_roots;
      check bool "attribute root is analyzed" true
        (List.exists
           (fun f -> f.Ir.root = "Probe.spin" && f.Ir.category = "alloc-stdlib")
           r.alloc_findings);
      (* A roots line naming no function must fail, not silently pass. *)
      let r = analyze dir ~roots:"hot Probe.nope\n" sources in
      check bool "stale roots line fails the run" false r.ok;
      check int "stale roots line reported" 1 (List.length r.errors))

let () =
  Alcotest.run "analyze"
    [
      ( "graph",
        [
          Alcotest.test_case "functor instantiation" `Quick
            test_functor_instantiation;
          Alcotest.test_case "first-class dispatch" `Quick
            test_first_class_dispatch;
          Alcotest.test_case "higher-order verdicts + allowlist" `Quick
            test_higher_order_and_allowlist;
        ] );
      ( "passes",
        [
          Alcotest.test_case "Simplif ref elimination" `Quick
            test_simplif_refs;
          Alcotest.test_case "taint reaches sink" `Quick
            test_taint_reaches_sink;
          Alcotest.test_case "attribute roots + rot" `Quick
            test_attribute_roots_and_rot;
        ] );
    ]
