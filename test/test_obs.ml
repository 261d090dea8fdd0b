(* lib/obs: flight recorder, latency anatomy and the Chrome trace exporter.

   The exporter tests parse the emitted JSON with a small recursive-descent
   parser (the repo deliberately has no JSON dependency): well-formedness,
   per-track B/E nesting and async b/e pairing are checked on a real
   instrumented simulation, and traces must be byte-identical across runs
   of the same seed — including with the domain pool enabled. *)

open Alcotest

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser: enough for trace-event files. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then s.[!pos] else '\x00' in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let string_body () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                (* keep the escape verbatim; the exporter never emits \u *)
                Buffer.add_string b "\\u"
            | c -> fail (Printf.sprintf "bad escape \\%c" c));
            advance ();
            go ()
        | '\x00' -> fail "unterminated string"
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let num_char c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while num_char (peek ()) do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = string_body () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or } in object"
            in
            Obj (members [])
          end
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            List []
          end
          else begin
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  elements (v :: acc)
              | ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ] in array"
            in
            List (elements [])
          end
      | '"' -> Str (string_body ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> Num (number ())
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None

  let str_exn = function Str s -> s | _ -> failwith "Json: expected string"

  let num_exn = function Num f -> f | _ -> failwith "Json: expected number"
end

(* ------------------------------------------------------------------ *)
(* One shared instrumented run (the sweeps are the expensive part). *)

let spec = Workload.Spec.default

let instrumented_run ?(seed = 1) ?(spans = 4096) () =
  let cfg = Minos.Experiment.config_of_scale Minos.Experiment.quick_scale in
  let obs =
    Obs.Instrument.create ~spans ~cores:cfg.Kvserver.Config.cores ~seed ()
  in
  let metrics =
    Minos.Experiment.Spec.make Kvserver.Design.minos
    |> Minos.Experiment.Spec.with_workload_spec spec
    |> Minos.Experiment.Spec.with_cfg cfg
    |> Minos.Experiment.Spec.with_load 2.0
    |> Minos.Experiment.Spec.with_obs obs
    |> Minos.Experiment.run_spec
  in
  (obs, metrics)

let shared = lazy (instrumented_run ())

(* ------------------------------------------------------------------ *)

let test_recorder_sampling () =
  let r = Obs.Recorder.create ~capacity:4 ~seed:7 () in
  check int "empty" 0 (Obs.Recorder.recorded r);
  let slots = List.init 6 (fun _ -> Obs.Recorder.try_sample r) in
  check (list int) "first 4 admitted, rest dropped" [ 0; 1; 2; 3; -1; -1 ] slots;
  check int "full" 4 (Obs.Recorder.recorded r);
  check int "dropped" 2 (Obs.Recorder.dropped r);
  check bool "incomplete until ts_end" false (Obs.Recorder.complete r 0);
  Obs.Recorder.set_ts r 0 Obs.Span.ts_end 42.0;
  check bool "complete once ts_end set" true (Obs.Recorder.complete r 0);
  Obs.Recorder.reset r;
  check int "reset empties" 0 (Obs.Recorder.recorded r);
  (* slot state is cleared lazily on re-acquisition *)
  check int "reacquire from slot 0" 0 (Obs.Recorder.try_sample r);
  check bool "reacquired slot starts incomplete" false (Obs.Recorder.complete r 0)

let test_recorder_sample_rate () =
  let r = Obs.Recorder.create ~capacity:4096 ~sample_rate:0.25 ~seed:3 () in
  let admitted = ref 0 in
  for _ = 1 to 4000 do
    if Obs.Recorder.try_sample r >= 0 then incr admitted
  done;
  check bool
    (Printf.sprintf "rate 0.25 admitted %d of 4000" !admitted)
    true
    (!admitted > 800 && !admitted < 1200);
  (* id-hash sampling is a pure function of the id *)
  let r2 = Obs.Recorder.create ~capacity:16 ~sample_rate:0.5 ~seed:3 () in
  let a = Obs.Recorder.try_sample_id r2 ~id:1234 >= 0 in
  Obs.Recorder.reset r2;
  let b = Obs.Recorder.try_sample_id r2 ~id:1234 >= 0 in
  check bool "try_sample_id deterministic per id" a b;
  (* stream sampling depends on the seed: different seeds admit different
     request subsets (at rate 1.0 the seed is irrelevant — all admitted) *)
  let admissions seed =
    let r = Obs.Recorder.create ~capacity:256 ~sample_rate:0.5 ~seed () in
    List.init 64 (fun _ -> Obs.Recorder.try_sample r >= 0)
  in
  check bool "same seed, same sample set" true (admissions 3 = admissions 3);
  check bool "different seed, different sample set" false
    (admissions 3 = admissions 4)

let test_recorder_alloc_free () =
  (* The record path must not allocate: spans live in preallocated flat
     arrays.  The measurement itself boxes a few floats, hence the
     slack — any per-span boxing would cost thousands of words here. *)
  let r = Obs.Recorder.create ~capacity:2048 ~seed:5 () in
  ignore (Obs.Recorder.try_sample r);
  Obs.Recorder.set_ts r 0 Obs.Span.ts_rx_enq 0.0;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    let s = Obs.Recorder.try_sample r in
    Obs.Recorder.set_ts r s Obs.Span.ts_rx_enq 1.0;
    Obs.Recorder.set_ts r s Obs.Span.ts_service_start 2.0;
    Obs.Recorder.set_ts r s Obs.Span.ts_end 3.0;
    Obs.Recorder.set_meta r s Obs.Span.meta_seq s;
    Obs.Recorder.set_meta r s Obs.Span.meta_size 64
  done;
  let words = Gc.minor_words () -. before in
  check bool
    (Printf.sprintf "allocated %.0f words over 1000 spans" words)
    true (words < 100.)

let test_timeline_and_decisions () =
  let tl = Obs.Timeline.create ~cores:2 ~interval_us:100.0 ~capacity:3 in
  let s0 = Obs.Timeline.start_sample tl ~now:0.0 in
  Obs.Timeline.set_core tl ~sample:s0 ~core:0 ~depth:5 ~busy_us:50.0;
  Obs.Timeline.set_core tl ~sample:s0 ~core:1 ~depth:0 ~busy_us:0.0;
  let s1 = Obs.Timeline.start_sample tl ~now:100.0 in
  Obs.Timeline.set_core tl ~sample:s1 ~core:0 ~depth:2 ~busy_us:130.0;
  Obs.Timeline.set_core tl ~sample:s1 ~core:1 ~depth:1 ~busy_us:10.0;
  check int "two samples" 2 (Obs.Timeline.samples tl);
  check int "depth readback" 2 (Obs.Timeline.depth tl s1 0);
  (* busy is cumulative; utilization is the per-interval delta *)
  check (float 1e-6) "utilization from busy delta" 0.8
    (Obs.Timeline.utilization tl s1 0);
  ignore (Obs.Timeline.start_sample tl ~now:200.0);
  check int "capacity clamps" (-1) (Obs.Timeline.start_sample tl ~now:300.0);
  let dl = Obs.Decision_log.create ~capacity:2 () in
  Obs.Decision_log.record dl ~now:1.0 ~threshold:1000.0 ~n_small:6 ~n_large:2 ();
  Obs.Decision_log.record dl ~now:2.0 ~threshold:1500.0 ~n_small:5 ~n_large:3 ();
  Obs.Decision_log.record dl ~now:3.0 ~threshold:1500.0 ~n_small:5 ~n_large:3 ();
  check int "log bounded" 2 (Obs.Decision_log.length dl);
  check int "overflow counted" 1 (Obs.Decision_log.dropped dl);
  check int "core moves counted" 1 (Obs.Decision_log.moves dl)

let test_anatomy_sums () =
  let obs, metrics = Lazy.force shared in
  let a = Obs.Anatomy.compute obs.Obs.Instrument.recorder in
  check bool "run completed requests" true (metrics.Kvserver.Metrics.completed > 0);
  check bool
    (Printf.sprintf "anatomy used %d spans" a.Obs.Anatomy.spans_used)
    true
    (a.Obs.Anatomy.spans_used > 1000);
  check bool
    (Printf.sprintf "components sum to end-to-end (max error %.6f us)"
       a.Obs.Anatomy.max_sum_error_us)
    true
    (a.Obs.Anatomy.max_sum_error_us < 0.01);
  check int "one row per component" Obs.Span.n_components
    (List.length a.Obs.Anatomy.rows);
  (* the e2e mean must also telescope at the aggregate level *)
  let sum_means =
    List.fold_left
      (fun acc r -> acc +. r.Obs.Anatomy.all.Obs.Anatomy.mean)
      0.0 a.Obs.Anatomy.rows
  in
  check (float 0.01) "mean components telescope"
    a.Obs.Anatomy.end_to_end.Obs.Anatomy.all.Obs.Anatomy.mean sum_means

let trace_string (obs : Obs.Instrument.t) =
  let buf = Buffer.create (1 lsl 16) in
  Obs.Chrome_trace.to_buffer ~name:"test Minos"
    ?timeline:obs.Obs.Instrument.timeline
    ~decisions:obs.Obs.Instrument.decisions obs.Obs.Instrument.recorder buf;
  Buffer.contents buf

let test_trace_well_formed () =
  let obs, _ = Lazy.force shared in
  let json = Json.parse (trace_string obs) in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List es) -> es
    | _ -> fail "no traceEvents array"
  in
  check bool "has events" true (List.length events > 1000);
  let count ph =
    List.length
      (List.filter
         (fun e -> match Json.member "ph" e with
           | Some (Json.Str s) -> s = ph
           | _ -> false)
         events)
  in
  let b = count "b" and e = count "e" in
  let sb = count "B" and se = count "E" in
  check int "async begin/end paired" b e;
  check int "service begin/end paired" sb se;
  check bool "service spans present" true (sb > 0);
  check bool "tx slices present" true (count "X" > 0);
  check bool "counters present" true (count "C" > 0);
  check bool "metadata present" true (count "M" > 0);
  (* per-track nesting: walking each tid's B/E events in time order never
     closes an unopened span and ends balanced *)
  let by_tid = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match Json.member "ph" ev with
      | Some (Json.Str ("B" | "E" as ph)) ->
          let tid =
            int_of_float (Json.num_exn (Option.get (Json.member "tid" ev)))
          in
          let ts = Json.num_exn (Option.get (Json.member "ts" ev)) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_tid tid) in
          Hashtbl.replace by_tid tid ((ts, ph) :: prev)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid evs ->
      let evs =
        List.sort
          (fun (t1, p1) (t2, p2) ->
            match Float.compare t1 t2 with
            | 0 -> compare (p1 = "B") (p2 = "B") (* E before B at equal ts *)
            | c -> c)
          (List.rev evs)
      in
      let depth =
        List.fold_left
          (fun d (_, ph) ->
            let d = if ph = "B" then d + 1 else d - 1 in
            if d < 0 then
              fail (Printf.sprintf "tid %d closes an unopened span" tid);
            d)
          0 evs
      in
      check int (Printf.sprintf "tid %d balanced" tid) 0 depth)
    by_tid;
  (* run-to-completion cores never nest *)
  Hashtbl.iter
    (fun tid evs ->
      let evs =
        List.sort (fun (t1, _) (t2, _) -> Float.compare t1 t2) (List.rev evs)
      in
      ignore
        (List.fold_left
           (fun d (_, ph) ->
             let d = if ph = "B" then d + 1 else d - 1 in
             check bool (Printf.sprintf "tid %d depth <= 1" tid) true (d <= 1);
             d)
           0 evs))
    by_tid;
  match Json.member "displayTimeUnit" json with
  | Some (Json.Str "ms") -> ()
  | _ -> fail "missing displayTimeUnit"

let test_trace_deterministic () =
  let obs1, _ = instrumented_run ~spans:1024 () in
  let obs2, _ = instrumented_run ~spans:1024 () in
  check bool "same seed, byte-identical trace" true
    (String.equal (trace_string obs1) (trace_string obs2));
  (* the domain pool must not perturb an instrumented run *)
  let saved = Minos.Par.jobs () in
  Minos.Par.set_jobs (Some 4);
  let obs3, _ = instrumented_run ~spans:1024 () in
  Minos.Par.set_jobs (Some saved);
  check bool "byte-identical under MINOS_JOBS=4" true
    (String.equal (trace_string obs1) (trace_string obs3))

let test_runtime_instrumented () =
  (* The other execution path: real domains, id-hash sampling.  Spans and
     the trace must hold the same invariants as the simulator's. *)
  let spec =
    {
      Workload.Spec.default with
      Workload.Spec.n_keys = 2_000;
      n_large_keys = 20;
      s_large_max = 32_000;
    }
  in
  let dataset = Workload.Dataset.create spec in
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:8
      ~value_arena_bytes:(32 * 1024 * 1024) ()
  in
  Runtime.Loadgen.populate store dataset;
  let config = Runtime.Server.default_config in
  let obs =
    Obs.Instrument.create ~spans:8192 ~cores:config.Runtime.Server.cores ~seed:1 ()
  in
  let server = Runtime.Server.start ~obs ~config store in
  let r =
    Fun.protect
      ~finally:(fun () -> Runtime.Server.stop server)
      (fun () -> Runtime.Loadgen.run ~server ~dataset ~requests:5_000 ~seed:3 ())
  in
  let r = match r with Ok r -> r | Error s -> fail (Runtime.Loadgen.stall_message s) in
  check int "all answered" 5_000 r.Runtime.Loadgen.completed;
  let a = Obs.Anatomy.compute obs.Obs.Instrument.recorder in
  check bool
    (Printf.sprintf "runtime spans recorded (%d)" a.Obs.Anatomy.spans_used)
    true
    (a.Obs.Anatomy.spans_used > 1000);
  check bool
    (Printf.sprintf "runtime components telescope (max error %.6f us)"
       a.Obs.Anatomy.max_sum_error_us)
    true
    (a.Obs.Anatomy.max_sum_error_us < 0.01);
  (* the exporter must stay parseable on runtime data too *)
  match Json.parse (trace_string obs) with
  | Json.Obj _ -> ()
  | _ -> fail "runtime trace is not a JSON object"

let test_trace_metadata_escaping () =
  let obs = Obs.Instrument.create ~spans:4 ~cores:2 ~seed:1 ~timeline:false () in
  let buf = Buffer.create 256 in
  Obs.Chrome_trace.to_buffer ~name:{|quo"te\back|} obs.Obs.Instrument.recorder buf;
  let json = Json.parse (Buffer.contents buf) in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List es) -> es
    | _ -> fail "no traceEvents array"
  in
  let name =
    List.find_map
      (fun e ->
        match Json.member "name" e with
        | Some (Json.Str "process_name") ->
            Option.map
              (fun a -> Json.str_exn (Option.get (Json.member "name" a)))
              (Json.member "args" e)
        | _ -> None)
      events
  in
  check (option string) "escaped metadata round-trips" (Some {|quo"te\back|}) name

let test_cluster_trace_pids () =
  (* A merged cluster trace tags each section's events with the owning
     recorder's server id as the Chrome pid. *)
  let ins s = Obs.Instrument.create ~server:s ~spans:16 ~cores:2 ~seed:(s + 1) () in
  let buf = Buffer.create 1024 in
  Obs.Chrome_trace.cluster_to_buffer [ ("shard 0", ins 0); ("shard 1", ins 1) ] buf;
  let events =
    match Json.member "traceEvents" (Json.parse (Buffer.contents buf)) with
    | Some (Json.List es) -> es
    | _ -> fail "no traceEvents array"
  in
  let process_names =
    List.filter_map
      (fun e ->
        match (Json.member "name" e, Json.member "pid" e, Json.member "args" e) with
        | Some (Json.Str "process_name"), Some pid, Some args ->
            Some
              ( int_of_float (Json.num_exn pid),
                Json.str_exn (Option.get (Json.member "name" args)) )
        | _ -> None)
      events
  in
  check (list (pair int string)) "one process group per shard"
    [ (0, "shard 0"); (1, "shard 1") ]
    process_names;
  List.iter
    (fun e ->
      match Json.member "pid" e with
      | Some pid ->
          let p = int_of_float (Json.num_exn pid) in
          check bool "pid is a server id" true (p = 0 || p = 1)
      | None -> fail "event without pid")
    events

(* ------------------------------------------------------------------ *)
(* Ledger and the JSON writer *)

let exact = result unit string

let test_ledger_merge_by_name () =
  let a = Obs.Ledger.make ~issued:10 [ ("served", 7); ("shed", 2); ("lost", 1) ] in
  let b = Obs.Ledger.make ~issued:5 [ ("lost", 3); ("served", 2); ("shed", 0) ] in
  let m = Obs.Ledger.merge [ a; b ] in
  check int "issued" 15 (Obs.Ledger.issued m);
  check (list int) "legs summed by name, first ledger's order" [ 9; 2; 4 ]
    (List.map (Obs.Ledger.leg m) [ "served"; "shed"; "lost" ]);
  check exact "merge telescopes" (Ok ()) (Obs.Ledger.check m);
  check_raises "duplicate leg" (Invalid_argument "Ledger.make: duplicate leg in served,served")
    (fun () -> ignore (Obs.Ledger.make ~issued:1 [ ("served", 1); ("served", 0) ]))

let test_ledger_merge_mismatch () =
  let a = Obs.Ledger.make ~issued:3 [ ("served", 3); ("cancelled", 0) ] in
  let b = Obs.Ledger.make ~issued:3 [ ("served", 3) ] in
  List.iter
    (fun ls ->
      match Obs.Ledger.merge ls with
      | _ -> fail "a merge that drops a leg must raise"
      | exception Invalid_argument _ -> ())
    [ [ a; b ]; [ b; a ] ]

let test_ledger_check_names_gap () =
  let l = Obs.Ledger.make ~issued:10 [ ("served", 6); ("shed", 1) ] in
  check bool "does not telescope" false (Obs.Ledger.telescopes l);
  check exact "error names issued, sum and gap"
    (Error "issued 10 but the legs sum to 7 (gap 3)") (Obs.Ledger.check l);
  check string "pp" "issued=10 served=6 shed=1 (gap 3)" (Format.asprintf "%a" Obs.Ledger.pp l)

let test_json_layout () =
  let l = Obs.Ledger.make ~issued:3 [ ("served", 2); ("shed", 1) ] in
  let doc =
    Obs.Json.(
      Obj
        [
          ("name", String "a");
          ("p99_us", Float 7.4684);
          ("ledger", Obs.Ledger.to_json l);
          ("series", List [ List [ Float 1.0; Null ]; List [] ]);
          ("rows", List [ Obj [ ("id", Int 0); ("ok", Bool true) ] ]);
          ("empty", Obj []);
        ])
  in
  check string "scalar-only containers inline, the rest one member per line"
    {|{
  "name": "a",
  "p99_us": 7.468,
  "ledger": {"issued": 3, "served": 2, "shed": 1, "telescopes": true},
  "series": [
    [1.000, null],
    []
  ],
  "rows": [
    {"id": 0, "ok": true}
  ],
  "empty": {}
}
|}
    (Obs.Json.to_string doc);
  check string "a scalar-only top level still gets one member per line"
    "{\n  \"a\": 1,\n  \"b\": 2\n}\n"
    Obs.Json.(to_string (Obj [ ("a", Int 1); ("b", Int 2) ]));
  (* Whatever the layout, the document parses back to the same values. *)
  match Json.member "ledger" (Json.parse (Obs.Json.to_string doc)) with
  | Some (Json.Obj kvs) -> check int "ledger members" 4 (List.length kvs)
  | _ -> fail "no ledger object"

let () =
  run "obs"
    [
      ( "recorder",
        [
          test_case "sampling and capacity" `Quick test_recorder_sampling;
          test_case "sample rate" `Quick test_recorder_sample_rate;
          test_case "record path is allocation-free" `Quick
            test_recorder_alloc_free;
          test_case "timeline and decision log" `Quick test_timeline_and_decisions;
        ] );
      ( "anatomy",
        [ test_case "components sum to end-to-end" `Slow test_anatomy_sums ] );
      ( "trace",
        [
          test_case "well-formed JSON with nested tracks" `Slow
            test_trace_well_formed;
          test_case "byte-identical across runs and domain pools" `Slow
            test_trace_deterministic;
          test_case "string escaping" `Quick test_trace_metadata_escaping;
          test_case "cluster trace: one pid per shard" `Quick
            test_cluster_trace_pids;
        ] );
      ( "runtime",
        [ test_case "native server spans and trace" `Slow test_runtime_instrumented ]
      );
      ( "ledger",
        [
          test_case "merge sums by name" `Quick test_ledger_merge_by_name;
          test_case "merge rejects mismatched legs" `Quick test_ledger_merge_mismatch;
          test_case "check names the gap" `Quick test_ledger_check_names_gap;
        ] );
      ("json", [ test_case "layout rule" `Quick test_json_layout ]);
    ]
