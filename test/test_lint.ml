(* Tests for the static checker's per-unit bans (the ban pass of
   `dune build @analyze`, lib/analyze): each rule fires on a seeded
   violation in a compiled probe, names resolve through [open] and
   module aliases, the scope (hot directory or everywhere) follows the
   source path each .cmt records, the allowlist suppresses ban findings
   and reports stale entries, and an unreadable .cmt fails the run. *)

open Analyze

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let strings = Alcotest.(list string)

(* The ban categories found in function [fn], in source order. *)
let bans (r : Analyze_core.result) fn =
  List.filter_map
    (fun (f : Ir.finding) -> if f.Ir.root = fn then Some f.Ir.category else None)
    r.Analyze_core.ban_findings

let test_hot_rules () =
  Cmt_probe.with_dir (fun dir ->
      Cmt_probe.compile dir
        [
          ( "lib/dsim/probe.ml",
            {|
let poly_compare a b = compare a b
let stdlib_compare a b = Stdlib.compare a b
let compare_as_arg xs = List.sort compare xs
let hash x = Hashtbl.hash x
let printf x = Printf.sprintf "%d" x
let format x = Format.asprintf "%d" x
let global_random () = Random.int 10
let state_random st = Random.State.int st 10
let gettimeofday () = Unix.gettimeofday ()
let sys_time () = Sys.time ()
let magic x = Obj.magic x
let repr x = Obj.repr x
let int_compare a b = Int.compare a b
let string_compare a b = String.compare a b
module P = Printf
let aliased x = P.sprintf "%d" x
let local_alias x = let module F = Format in F.asprintf "%d" x
let in_local_module x =
  let module M = struct let g y = Printf.sprintf "%d" y end in M.g x
include struct let included x = Printf.sprintf "%d" x end
let compare a b = a - b
let own_compare a b = compare a b
|}
          );
          ("lib/dsim/opened.ml", "open Printf\nlet opened x = sprintf \"%d\" x\n");
        ];
      let r = Cmt_probe.run dir in
      check strings "no load errors" [] r.Analyze_core.errors;
      List.iter
        (fun (fn, expected) ->
          check strings fn (List.map (fun rule -> "ban-" ^ rule) expected) (bans r fn))
        [
          ("Probe.poly_compare", [ "polymorphic-compare" ]);
          ("Probe.stdlib_compare", [ "polymorphic-compare" ]);
          ("Probe.compare_as_arg", [ "polymorphic-compare" ]);
          ("Probe.hash", [ "polymorphic-hash" ]);
          ("Probe.printf", [ "printf-in-hot-path" ]);
          ("Probe.format", [ "printf-in-hot-path" ]);
          ("Probe.global_random", [ "global-random" ]);
          ("Probe.state_random", []);
          ("Probe.gettimeofday", [ "wallclock" ]);
          ("Probe.sys_time", [ "wallclock" ]);
          ("Probe.magic", [ "obj-magic" ]);
          ("Probe.repr", [ "obj-primitive" ]);
          ("Probe.int_compare", []);
          ("Probe.string_compare", []);
          (* Names resolve through module aliases and [open] ... *)
          ("Probe.aliased", [ "printf-in-hot-path" ]);
          ("Probe.local_alias", [ "printf-in-hot-path" ]);
          ("Opened.opened", [ "printf-in-hot-path" ]);
          (* ... and into local and included structures. *)
          ("Probe.included", [ "printf-in-hot-path" ]);
          (* ... nor tell apart from Stdlib's: the unit's own [compare]. *)
          ("Probe.own_compare", []);
        ];
      check bool "a local module's function is scanned" true
        (List.exists
           (fun (f : Ir.finding) ->
             String.ends_with ~suffix:".g" f.Ir.root
             && f.Ir.category = "ban-printf-in-hot-path")
           r.Analyze_core.ban_findings);
      check bool "findings fail the run" false r.Analyze_core.ok;
      check strings "the ident is the resolved name" [ "Printf.sprintf" ]
        (List.filter_map
           (fun (f : Ir.finding) ->
             if f.Ir.root = "Probe.aliased" then Some f.Ir.ident else None)
           r.Analyze_core.ban_findings))

let test_cold_scope () =
  (* Outside the hot directories only the Obj rules apply. *)
  Cmt_probe.with_dir (fun dir ->
      Cmt_probe.compile dir
        [
          ( "lib/check/cold.ml",
            "let printf x = Printf.sprintf \"%d\" x\n\
             let poly_compare a b = compare a b\n\
             let magic x = Obj.magic x\n" );
        ];
      let r = Cmt_probe.run dir in
      check strings "printf fine when cold" [] (bans r "Cold.printf");
      check strings "compare fine when cold" [] (bans r "Cold.poly_compare");
      check strings "Obj.magic banned everywhere" [ "ban-obj-magic" ]
        (bans r "Cold.magic"))

let test_parse_error () =
  (* A .cmt that cannot be read fails the run by name; it is never a
     unit quietly left out of the proofs. *)
  Cmt_probe.with_dir (fun dir ->
      Cmt_probe.compile dir [ ("lib/dsim/probe.ml", "let f x = x + 1\n") ];
      let cmt = Filename.concat dir "lib/dsim/probe.cmt" in
      let data = In_channel.with_open_bin cmt In_channel.input_all in
      Out_channel.with_open_bin cmt (fun oc ->
          Out_channel.output_string oc (String.sub data 0 (String.length data / 2)));
      let r = Cmt_probe.run dir in
      check bool "truncated .cmt fails the run" false r.Analyze_core.ok;
      check int "one error" 1 (List.length r.Analyze_core.errors);
      check bool "the error names the file" true
        (String.starts_with ~prefix:("unreadable " ^ cmt)
           (List.hd r.Analyze_core.errors));
      check int "no unit loaded" 0 r.Analyze_core.units)

let test_is_hot_path () =
  Cmt_probe.with_dir (fun dir ->
      let unit name = (name, "let f x = Printf.sprintf \"%d\" x\n") in
      let hot =
        [
          "lib/dsim/h_dsim.ml"; "lib/netsim/h_netsim.ml"; "lib/server/h_server.ml";
          "lib/stats/h_stats.ml"; "lib/obs/h_obs.ml"; "lib/fault/h_fault.ml";
          "lib/cluster/h_cluster.ml"; "lib/shardmgr/h_shardmgr.ml";
          (* an absolute source path classifies too *)
          Filename.concat dir "lib/kv/h_kv.ml";
        ]
      in
      let cold = [ "lib/check/c_check.ml"; "lib/core/c_core.ml"; "lib/dsimx/c_dsimx.ml"; "c_top.ml" ] in
      Cmt_probe.compile dir (List.map unit (hot @ cold));
      let r = Cmt_probe.run dir in
      let flagged =
        List.map (fun (f : Ir.finding) -> f.Ir.root) r.Analyze_core.ban_findings
        |> List.sort String.compare
      in
      let fn path =
        String.capitalize_ascii (Filename.remove_extension (Filename.basename path)) ^ ".f"
      in
      check strings "exactly the nine hot directories"
        (List.sort String.compare (List.map fn hot))
        flagged)

let banned_probe =
  [ ("lib/dsim/probe.ml", "let f x = Obj.magic x\nlet g () = Random.int 3\n") ]

let test_allowlist () =
  Cmt_probe.with_dir (fun dir ->
      Cmt_probe.compile dir banned_probe;
      let r =
        Cmt_probe.run dir
          ~allow:
            "Probe.f ban-obj-magic:Obj.magic  # reviewed\n\
             Probe.g ban-global-random\n\
             Probe.h ban-wallclock  # covers nothing\n"
      in
      check int "violations suppressed" 0 (List.length r.Analyze_core.ban_findings);
      check int "stale entry reported" 1 (List.length r.Analyze_core.errors);
      check bool "stale entry fails the run" false r.Analyze_core.ok;
      (* Same allowlist minus the stale entry: clean. *)
      let r =
        Cmt_probe.run dir
          ~allow:"Probe.f ban-obj-magic:Obj.magic\nProbe.g ban-global-random\n"
      in
      check bool "clean with exact allowlist" true r.Analyze_core.ok)

let test_allowlist_parsing () =
  Cmt_probe.with_dir (fun dir ->
      Cmt_probe.write dir "allow.txt"
        "# comment\n\n\
         Probe.f ban-printf-in-hot-path:Printf.sprintf  # trailing comment\n\
         \tProbe.g\tban-obj-magic\n\
         one-field-only\n";
      let t = Allowlist.load (Filename.concat dir "allow.txt") in
      check strings "two entries"
        [ "Probe.f ban-printf-in-hot-path:Printf.sprintf"; "Probe.g ban-obj-magic" ]
        (List.map (fun (e : Allowlist.entry) -> e.Allowlist.key) t.Allowlist.entries);
      check int "malformed line reported" 1 (List.length t.Allowlist.errors))

let test_tree_walk () =
  (* End-to-end over a synthetic tree: the loader recurses, the scope
     comes from each unit's directory, and the allowlist keys on the
     containing function.  (The repo's own configuration is enforced by
     the @analyze alias, which CI builds.) *)
  Cmt_probe.with_dir (fun dir ->
      Cmt_probe.compile dir
        [
          ("lib/dsim/engine.ml", "let f x = Printf.sprintf \"%d\" x\n");
          ("lib/check/report.ml", "let f x = Printf.sprintf \"%d\" x\n");
        ];
      let r = Cmt_probe.run dir in
      check int "two units loaded" 2 r.Analyze_core.units;
      check strings "hot file flagged, cold file not" [ "Engine.f" ]
        (List.map (fun (f : Ir.finding) -> f.Ir.root) r.Analyze_core.ban_findings);
      check strings "rule" [ "ban-printf-in-hot-path" ] (bans r "Engine.f");
      let r =
        Cmt_probe.run dir ~allow:"Engine.f ban-printf-in-hot-path:Printf.sprintf\n"
      in
      check bool "function-keyed allowlist suppresses" true r.Analyze_core.ok)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "hot-path rules" `Quick test_hot_rules;
          Alcotest.test_case "cold scope" `Quick test_cold_scope;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "hot path classification" `Quick test_is_hot_path;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "suppression + staleness" `Quick test_allowlist;
          Alcotest.test_case "file parsing" `Quick test_allowlist_parsing;
        ] );
      ("tree", [ Alcotest.test_case "walk + classification" `Quick test_tree_walk ]);
    ]
