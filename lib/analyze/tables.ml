(* Classification tables for calls that leave the project: OCaml
   primitives and stdlib functions we cannot (and do not want to)
   analyze from .cmt files.  Kept deliberately explicit — an unknown
   name yields a conservative [Unknown] verdict, never a silent pass. *)

let strip_stdlib name =
  match String.index_opt name '.' with
  | Some i when String.sub name 0 i = "Stdlib" ->
      String.sub name (i + 1) (String.length name - i - 1)
  | _ -> name

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------------------------------ *)
(* Allocation classification for external (out-of-project) calls. *)

type extern_class =
  | Safe  (** provably allocation-free for our purposes *)
  | Alloc of Ir.alloc_kind  (** definitely allocates *)
  | Terminal  (** diverges (raise helpers): cold path, not traversed *)
  | Unknown  (** no verdict: conservative unknown-callee finding *)

(* Structural comparison stubs: C calls, but they allocate nothing. *)
let compare_stubs =
  [
    "caml_equal"; "caml_notequal"; "caml_lessthan"; "caml_lessequal";
    "caml_greaterthan"; "caml_greaterequal"; "caml_compare";
    "caml_int_compare"; "caml_float_compare"; "caml_string_compare";
    "caml_bytes_compare"; "caml_string_equal"; "caml_bytes_equal";
    "caml_string_notequal"; "caml_int64_compare"; "caml_int32_compare";
    "caml_nativeint_compare";
  ]

(* C stubs that never allocate on the OCaml heap (beyond possible
   exceptions, which the Terminal handling of their callers covers). *)
let noalloc_stubs =
  [
    "caml_array_blit"; "caml_array_fill"; "caml_floatarray_blit";
    "caml_bytes_blit"; "caml_bytes_blit_string"; "caml_blit_string";
    "caml_blit_bytes"; "caml_fill_bytes"; "caml_string_get";
    "caml_bytes_get"; "caml_bytes_set"; "caml_ml_flush";
    "caml_ml_output"; "caml_ml_output_char"; "caml_ml_output_bytes";
    "caml_sys_exit";
  ]

(* C stubs that allocate an OCaml block on every call. *)
let alloc_stubs =
  [
    "caml_make_vect"; "caml_floatarray_create"; "caml_make_float_vect";
    "caml_array_sub"; "caml_array_append"; "caml_array_concat";
    "caml_create_bytes"; "caml_string_of_bytes"; "caml_bytes_of_string";
    "caml_string_concat"; "caml_format_int"; "caml_format_float";
    "caml_float_of_string"; "caml_int_of_string"; "caml_obj_dup";
    "caml_obj_block"; "caml_input_line"; "caml_gc_stat";
    "caml_gc_quick_stat";
  ]

(* Verdict for an OCaml [external], from its primitive description.
   Compiler-intrinsic [%] primitives compile to inline code and do not
   allocate — except the explicitly-listed block builders.  Float
   results of [%]-primitives may box depending on context; that is
   beyond a Typedtree-level analysis and stays the Gc-counter bench
   gate's job (see DESIGN.md §13 soundness caveats). *)
let classify_prim (p : Primitive.description) : extern_class =
  let n = p.prim_name in
  if n = "" then Unknown
  else if n.[0] = '%' then begin
    match n with
    | "%makemutable" -> Alloc Ir.Ref_cell
    | "%lazy_force" | "%obj_dup" -> Unknown
    | "%raise" | "%reraise" | "%raise_notrace" ->
        (* The raise itself is fine; any allocating payload is visible
           as a separate Texp_construct at the call site. *)
        Safe
    | _ -> Safe
  end
  else if List.mem n compare_stubs then Safe
  else if List.mem n noalloc_stubs then Safe
  else if List.mem n alloc_stubs then Alloc Ir.Stdlib_alloc
  else if not p.prim_alloc then Safe
  else Unknown

(* Non-external stdlib functions, by [Stdlib.]-stripped dotted name.
   [Terminal] names diverge by contract. *)
let stdlib_terminal =
  [ "invalid_arg"; "failwith"; "exit"; "assert_failure" ]

let stdlib_safe =
  [
    (* comparisons / arithmetic helpers (specialized or allocation-free) *)
    "min"; "max"; "abs"; "compare"; "not"; "ignore";
    "Int.min"; "Int.max"; "Int.abs"; "Int.compare"; "Int.equal";
    "Float.max"; "Float.min"; "Float.compare"; "Float.equal";
    "Float.is_nan"; "Float.is_integer"; "Float.abs";
    "Char.equal"; "Char.compare"; "Bool.not";
    "String.length"; "String.equal"; "String.compare"; "Bytes.length";
    "Array.length"; "Float.Array.length";
    "Float.is_finite"; "Float.of_int"; "Float.to_int";
    (* blits/fills: bounds-checked wrappers over noalloc C stubs *)
    "Array.blit"; "Array.fill"; "Bytes.blit"; "Bytes.blit_string";
    "Bytes.fill"; "String.blit"; "Bytes.unsafe_blit";
    (* fixed-width byte accessors over [%caml_bytes_get/set*] intrinsics:
       the setters store an argument the caller already holds, the
       getters listed return immediates (the 32/64-bit getters box, and
       stay unlisted) *)
    "Bytes.get_uint8"; "Bytes.get_uint16_le"; "Bytes.set_uint8";
    "Bytes.set_uint16_le"; "Bytes.set_int32_le"; "Bytes.set_int64_le";
    (* Atomic: every operation is a [%atomic_*] intrinsic or a
       non-allocating wrapper around one *)
    "Atomic.get"; "Atomic.set"; "Atomic.exchange"; "Atomic.compare_and_set";
    "Atomic.fetch_and_add"; "Atomic.incr"; "Atomic.decr";
    (* spin-wait hint: a noalloc C stub behind [Domain]'s abstract
       signature *)
    "Domain.cpu_relax";
    (* misc non-allocating *)
    "Hashtbl.length"; "Queue.length"; "Queue.is_empty";
    "Option.is_none"; "Option.is_some"; "Fun.id";
    (* externals behind a [val] in their .mli: [%bytes_of_string] (the
       identity), and a [@@noalloc] stub whose float result is unboxed *)
    "Bytes.unsafe_of_string"; "Unix.gettimeofday";
  ]

let stdlib_alloc =
  [
    "ref"; "^"; "@";
    "string_of_int"; "string_of_float"; "string_of_bool"; "float_of_string";
    "int_of_string"; "string_of_format";
    "Array.make"; "Array.init"; "Array.copy"; "Array.append"; "Array.concat";
    "Array.sub"; "Array.of_list"; "Array.to_list"; "Array.map"; "Array.mapi";
    "Array.map2"; "Array.to_seq"; "Array.split"; "Array.combine";
    "List.map"; "List.mapi"; "List.rev"; "List.rev_map"; "List.append";
    "List.concat"; "List.concat_map"; "List.filter"; "List.filteri";
    "List.filter_map"; "List.init"; "List.sort"; "List.stable_sort";
    "List.fast_sort"; "List.split"; "List.combine"; "List.of_seq";
    "List.to_seq"; "List.cons"; "List.partition";
    "String.make"; "String.init"; "String.sub"; "String.concat";
    "String.cat"; "String.map"; "String.mapi"; "String.split_on_char";
    "String.lowercase_ascii"; "String.uppercase_ascii"; "String.trim";
    "String.escaped"; "String.of_seq"; "String.to_seq";
    "Bytes.create"; "Bytes.make"; "Bytes.init"; "Bytes.copy"; "Bytes.sub";
    "Bytes.cat"; "Bytes.of_string"; "Bytes.to_string"; "Bytes.extend";
    "Buffer.create"; "Buffer.contents"; "Buffer.to_bytes"; "Buffer.add_string";
    "Buffer.add_char"; "Buffer.add_substring"; "Buffer.add_buffer";
    "Hashtbl.create"; "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.copy";
    "Hashtbl.fold"; "Hashtbl.to_seq";
    "Option.some"; "Option.map"; "Option.bind"; "Option.to_list";
    "Result.ok"; "Result.error"; "Result.map"; "Result.bind";
    "Queue.create"; "Queue.push"; "Queue.add"; "Stack.create"; "Stack.push";
    "Seq.map"; "Seq.filter"; "Seq.cons"; "Seq.of_list";
    "Printf.sprintf"; "Printf.printf"; "Printf.eprintf"; "Printf.ksprintf";
    "Printf.fprintf"; "Printf.kfprintf"; "Printf.ifprintf";
    "Format.sprintf"; "Format.printf"; "Format.eprintf"; "Format.fprintf";
    "Format.asprintf"; "Format.kasprintf"; "Format.ksprintf";
    "Format.pp_print_string"; "Format.pp_print_int"; "Format.pp_print_float";
    "Format.pp_print_list"; "Format.pp_print_char"; "Format.pp_print_space";
    "Format.pp_print_cut"; "Format.pp_print_newline";
    "Gc.minor_words"; "Gc.stat"; "Gc.quick_stat"; "Gc.counters";
    "Marshal.to_string"; "Marshal.to_bytes";
  ]

(* Whole modules whose (pure, deterministic, non-project) functions we
   accept without a verdict table — used by the classification fallback
   to distinguish "stdlib function we have no entry for" (Unknown for
   the allocation pass) from "project path that failed to resolve". *)
let stdlib_modules =
  [
    "Array"; "List"; "String"; "Bytes"; "Buffer"; "Char"; "Int"; "Float";
    "Bool"; "Option"; "Result"; "Seq"; "Map"; "Set"; "Hashtbl"; "Queue";
    "Stack"; "Printf"; "Format"; "Scanf"; "Fun"; "Either"; "Lazy";
    "Atomic"; "Gc"; "Sys"; "Filename"; "In_channel"; "Out_channel";
    "Printexc"; "Marshal"; "Random"; "Domain"; "Unix"; "Obj"; "Arg";
    "Lexing"; "Parsing"; "Stdlib"; "Complex"; "Uchar"; "Weak"; "Ephemeron";
    "Int32"; "Int64"; "Nativeint"; "Condition"; "Mutex"; "Thread";
    "Semaphore"; "Bigarray"; "Str";
  ]

let module_head name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let is_stdlib_name name =
  let name = strip_stdlib name in
  List.mem (module_head name) stdlib_modules
  (* operators and bare Stdlib values: [^], [@], [ref], [incr], ... *)
  || not (String.contains name '.')

(* Verdict for a non-external call that did not resolve to a project
   definition.  Callers pass the [Stdlib.]-stripped dotted name. *)
let classify_stdlib name : extern_class =
  if List.mem name stdlib_terminal then Terminal
  else if List.mem name stdlib_safe then Safe
  else if List.mem name stdlib_alloc then Alloc Ir.Stdlib_alloc
  else Unknown

(* ------------------------------------------------------------------ *)
(* Determinism-taint sources.  Matching is on the stripped dotted name;
   [Random.State.*] is deliberately absent (seeded streams are the
   sanctioned source of randomness), while global [Random.*] and
   [Random.State.make_self_init] are sources. *)

let taint_sources =
  [
    ("Unix.gettimeofday", "wall clock");
    ("Unix.time", "wall clock");
    ("Unix.times", "process CPU clock");
    ("Unix.clock_gettime", "system clock");
    ("Unix.getpid", "process id");
    ("Unix.getenv", "environment read");
    ("Unix.environment", "environment read");
    ("Sys.time", "process CPU clock");
    ("Sys.getenv", "environment read");
    ("Sys.getenv_opt", "environment read");
    ("Random.State.make_self_init", "self-seeded RNG");
    ("Domain.self", "domain identity");
    ("Hashtbl.hash", "polymorphic hash (unstable on cycles/floats)");
    ("Hashtbl.seeded_hash", "polymorphic hash (unstable on cycles/floats)");
    ("Gc.minor_words", "GC counter");
    ("Gc.stat", "GC counter");
    ("Gc.quick_stat", "GC counter");
    ("Gc.counters", "GC counter");
  ]

(* All of global [Random] except the explicitly-threaded state API. *)
let global_random name =
  has_prefix ~prefix:"Random." name
  && not (has_prefix ~prefix:"Random.State." name)

let taint_source name =
  let name = strip_stdlib name in
  match List.assoc_opt name taint_sources with
  | Some why -> Some why
  | None -> if global_random name then Some "global Random state" else None

(* ------------------------------------------------------------------ *)
(* Per-unit bans.  Unlike the two traversals, a ban applies to every
   site in its scope, reachable from a root or not: [Obj] in every unit,
   the rest in the hot directories below, where formatting allocates,
   polymorphic compare/hash walk the representation, and global
   randomness or a wall-clock read breaks the simulator's determinism.
   Matching is on the stripped dotted name the scanner resolved through
   [open] and module aliases. *)

let hot_dirs =
  [
    "dsim"; "netsim"; "server"; "kv"; "obs"; "stats"; "fault"; "cluster";
    "shardmgr";
  ]

(* A unit is hot when its recorded source path, relative or absolute,
   runs through [lib/<hot dir>/]. *)
let is_hot_source source =
  let rec go = function
    | "lib" :: dir :: (_ :: _ as rest) ->
        List.mem dir hot_dirs || go (dir :: rest)
    | _ :: rest -> go rest
    | [] -> false
  in
  go (String.split_on_char '/' source)

type ban = {
  rule : string;
  everywhere : bool;  (** [false]: hot units only *)
  why : string;
  matches : string -> bool;
}

(* First match wins, so [obj-magic] shadows [obj-primitive]. *)
let bans =
  [
    {
      rule = "obj-magic";
      everywhere = true;
      why = "unsafe cast defeats the type system";
      matches = String.equal "Obj.magic";
    };
    {
      rule = "obj-primitive";
      everywhere = true;
      why = "unsafe runtime representation access";
      matches = has_prefix ~prefix:"Obj.";
    };
    {
      rule = "polymorphic-compare";
      everywhere = false;
      why = "allocates and walks the representation; use a monomorphic compare";
      matches = String.equal "compare";
    };
    {
      rule = "polymorphic-hash";
      everywhere = false;
      why = "polymorphic hash on the hot path; use a keyed/monomorphic hash";
      matches = (fun n -> n = "Hashtbl.hash" || n = "Hashtbl.seeded_hash");
    };
    {
      rule = "printf-in-hot-path";
      everywhere = false;
      why = "formatting allocates; keep it out of sim/server hot paths";
      matches =
        (fun n -> has_prefix ~prefix:"Printf." n || has_prefix ~prefix:"Format." n);
    };
    {
      rule = "global-random";
      everywhere = false;
      why = "global Random state breaks determinism; thread a Random.State.t";
      matches = global_random;
    };
    {
      rule = "wallclock";
      everywhere = false;
      why = "wall-clock read; simulated components must use sim time";
      matches =
        (fun n -> List.mem n [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]);
    };
  ]

let ban ~hot name =
  List.find_opt (fun b -> (hot || b.everywhere) && b.matches name) bans
