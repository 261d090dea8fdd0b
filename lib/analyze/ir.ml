(* Shared data model for the interprocedural analyzer: what the scanner
   extracts from each .cmt and what the graph traversal consumes.  One
   [func] per named function definition; calls keep the raw path text
   plus enough classification (functor parameter, first-class member,
   higher-order) for {!Graph} to resolve them later against the whole
   program. *)

type site = { file : string; line : int; col : int }

let site_of_loc ~file (loc : Location.t) =
  let p = loc.Location.loc_start in
  { file; line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol }

let pp_site ppf s = Format.fprintf ppf "%s:%d:%d" s.file s.line s.col

(* A statically-detected allocation in a function body.  [ident] is a
   short human label (constructor/binder name, primitive, ...) used both
   in the report and as the allowlist key detail. *)
type alloc_kind =
  | Record
  | Tuple
  | Construct
  | Variant
  | Array_lit
  | Closure
  | Partial_apply
  | Ref_cell
  | Stdlib_alloc
  | C_stub
  | Lazy_val
  | Object_alloc

let alloc_category = function
  | Record -> "alloc-record"
  | Tuple -> "alloc-tuple"
  | Construct -> "alloc-construct"
  | Variant -> "alloc-variant"
  | Array_lit -> "alloc-array"
  | Closure -> "alloc-closure"
  | Partial_apply -> "alloc-partial-apply"
  | Ref_cell -> "alloc-ref"
  | Stdlib_alloc -> "alloc-stdlib"
  | C_stub -> "alloc-c-stub"
  | Lazy_val -> "alloc-lazy"
  | Object_alloc -> "alloc-object"

type alloc = { akind : alloc_kind; aident : string; asite : site }

(* Call-site classification, decided while the defining unit is scanned
   (when local scope information is still available):
   - [Direct]: a value path such as ["Kvserver.Engine.execute"] or a
     bare same-unit name such as ["refill"]; resolved later against the
     definition table, innermost scope first.  [escape] marks a bare
     function reference in argument position (not the applied head): it
     adds an edge when it resolves but is silent when it does not (most
     bare idents are plain data).
   - [Functor_param]: a call through the enclosing functor's parameter,
     e.g. [A.make] inside [Ring.Make]; resolvable only once the functor
     instantiation that led the traversal here is known.
   - [First_class]: a call through a module unpacked from a first-class
     value, e.g. [D.make] after [let (module D) = ...]; resolved
     conservatively against every module the program ever packs.
   - [Higher_order]: the head is a function-typed local (parameter,
     record field, expression) — statically unknowable; the traversal
     reports an unknown-callee verdict. *)
type callee =
  | Direct of { path : string; escape : bool }
  | Functor_param of { param : string; member : string }
  | First_class of { member : string }
  | Higher_order of { label : string }

(* [supplied]/[ret_arrow] feed partial-application detection, which can
   only be decided once the callee's definition arity is known (OCaml
   types cannot distinguish [t -> unit -> unit] from a function that
   returns a stored closure): a call whose result is arrow-typed while
   fewer arguments than the definition takes were supplied builds a
   closure. *)
type call = {
  callee : callee;
  csite : site;
  supplied : int;  (** arguments given at the call site *)
  ret_arrow : bool;  (** the application's result is function-typed *)
}

type taint = { source : string; tsite : site }

type func = {
  fname : string;  (** canonical: [Unit[.Sub].fn], e.g. [Dsim__Sim.run] *)
  fsite : site;
  hot : bool;  (** carries a [[@hot]]/[[@analyze.hot]] attribute *)
  cold : bool;
      (** carries a [[@cold]]/[[@analyze.cold]] attribute: a reviewed
          amortized path (capacity doubling, error reporting) that the
          traversal does not descend into *)
  diverging : bool;
      (** return type is a free type variable: the function never
          returns normally (error/raise helper), so its body is a cold
          path the allocation proof skips *)
  arity : int;  (** syntactic parameter count of the definition *)
  scopes : string list;  (** resolution scopes, innermost first *)
  fparams : string list;  (** enclosing functor parameters, if any *)
  allocs : alloc list;
  calls : call list;
  taints : taint list;
}

(* ------------------------------------------------------------------ *)
(* Findings *)

type finding = {
  category : string;
      (** e.g. ["alloc-closure"], ["unknown-callee"], ["taint"],
          ["ban-wallclock"] *)
  ident : string;  (** detail label; second half of the allowlist key *)
  message : string;
  fsite_ : site;  (** where the offending site is *)
  root : string;
      (** the root that reaches it; for a ban, the function it sits in *)
  witness : (string * site) list;
      (** call path, root first: [(function, call-site-into-next)] *)
}

let allow_keys f =
  (* An allowlist entry may name just the category, or pin the detail. *)
  [ f.category; f.category ^ ":" ^ f.ident ]

(* ------------------------------------------------------------------ *)
(* Whole program *)

(* Module-alias facts harvested from the whole program.  [Plain] covers
   dune's generated alias units ([module Sim = Dsim__Sim]) and ordinary
   aliases; [Apply] records a functor instantiation, which resolution
   expands into the functor body plus a parameter substitution. *)
type alias = Plain of string | Apply of { functor_path : string; args : string list }

type program = {
  funcs : (string, func) Hashtbl.t;
  aliases : (string, alias * string list) Hashtbl.t;
      (** qualified module name -> (target, scopes the target is
          relative to — needed because [module A = B] may name a
          same-unit module) *)
  functor_params : (string, string list) Hashtbl.t;
      (** functor path -> parameter names, in order *)
  packed : (string, unit) Hashtbl.t;  (** module paths packed as first-class values *)
  mutable bans : finding list;
      (** per-unit ban findings, each attributed to its containing
          function (the unit, for module-level code) *)
  mutable units : string list;  (** compilation units scanned, for reporting *)
}

let create_program () =
  {
    funcs = Hashtbl.create 1024;
    aliases = Hashtbl.create 256;
    functor_params = Hashtbl.create 16;
    packed = Hashtbl.create 16;
    bans = [];
    units = [];
  }

