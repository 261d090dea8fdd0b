(* Typedtree scanner: turns each compilation unit's .cmt into {!Ir.func}
   summaries plus the program-wide module facts (aliases, functor
   parameters, packed modules) that {!Graph} resolves calls against.

   Scanning happens once per unit, context-free: a functor body is
   summarized a single time with symbolic [Functor_param] calls, and the
   traversal later substitutes the actual argument per instantiation. *)

open Typedtree

module SMap = Map.Make (String)

type local_kind = Lval | Lfun

type env = {
  locals : local_kind SMap.t;  (** value binders in scope (params, lets) *)
  unpacked : unit SMap.t;  (** local modules bound by [let (module D) = ...] *)
  lmods : Ir.alias SMap.t;  (** expression-local module aliases *)
}

let env0 = { locals = SMap.empty; unpacked = SMap.empty; lmods = SMap.empty }

type ctx = {
  prog : Ir.program;
  file : string;
  hot : bool;  (** the unit lies in a hot directory ({!Tables.is_hot_source}) *)
  mutable owner : string;
      (** the function a ban found now is attributed to: the enclosing
          named function, or the unit for module-level code *)
  mutable gensym : int;  (** for per-site synthetic alias/pack names *)
}

type acc = {
  mutable allocs : Ir.alloc list;
  mutable calls : Ir.call list;
  mutable taints : Ir.taint list;
}

let fresh_acc () = { allocs = []; calls = []; taints = [] }

let site ctx (e : expression) = Ir.site_of_loc ~file:ctx.file e.exp_loc

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let suffix_after_head name =
  match String.index_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let add_binders ?(kind = Lval) env ids =
  {
    env with
    locals =
      List.fold_left
        (fun m id -> SMap.add (Ident.name id) kind m)
        env.locals ids;
  }

(* [(module M)] / [(module M : S)] in binding position: a [Tpat_var]
   carrying a [Tpat_unpack] extra.  Such binders join [env.unpacked]
   (first-class dispatch), not [env.locals]. *)
let unpack_ident : type k. k general_pattern -> Ident.t option =
 fun p ->
  if
    List.exists
      (fun (ex, _, _) -> match ex with Tpat_unpack -> true | _ -> false)
      p.pat_extra
  then
    match p.pat_desc with Tpat_var (id, _) -> Some id | _ -> None
  else None

let bind_pat : type k. env -> k general_pattern -> env =
 fun env p ->
  match unpack_ident p with
  | Some id -> { env with unpacked = SMap.add (Ident.name id) () env.unpacked }
  | None -> add_binders env (pat_bound_idents p)

let rec unwrap_mod (me : module_expr) =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> unwrap_mod me
  | _ -> me

let mod_ident_name me =
  match (unwrap_mod me).mod_desc with
  | Tmod_ident (p, _) -> Some (Path.name p)
  | _ -> None

(* F(X)(Y) -> Some ("F", ["X"; "Y"]); arguments that are not simple
   module paths become ["?"], which resolution treats as unknown. *)
let rec decompose_apply me args =
  match (unwrap_mod me).mod_desc with
  | Tmod_apply (f, a, _) ->
      let a_name = match mod_ident_name a with Some s -> s | None -> "?" in
      decompose_apply f (a_name :: args)
  | Tmod_apply_unit f -> decompose_apply f args
  | Tmod_ident (p, _) -> Some (Path.name p, args)
  | _ -> None

(* Return type reached after consuming every arrow. *)
let rec arrow_split ty args =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, b, _) -> arrow_split b (a :: args)
  | Types.Tpoly (t, _) -> arrow_split t args
  | _ -> (List.rev args, ty)

let is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> (
      match Types.get_desc t with Types.Tarrow _ -> true | _ -> false)
  | _ -> false

let var_ids ty =
  let seen = Hashtbl.create 16 in
  let out = Hashtbl.create 16 in
  let rec go ty =
    let id = Types.get_id ty in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      (match Types.get_desc ty with
      | Types.Tvar _ -> Hashtbl.replace out id ()
      | _ -> ());
      Btype.iter_type_expr go ty
    end
  in
  go ty;
  out

(* A function whose return type is a type variable that appears in none
   of its argument types can only exit by raising: a cold error helper
   ([reject_past], [invalid_arg] wrappers).  The allocation pass skips
   such bodies — allocation on a raise path does not affect the
   steady-state hot path. *)
let diverging ty =
  let args, ret = arrow_split ty [] in
  args <> []
  &&
  match Types.get_desc ret with
  | Types.Tvar _ ->
      let id = Types.get_id ret in
      not (List.exists (fun a -> Hashtbl.mem (var_ids a) id) args)
  | _ -> false

(* Structured constants ([Some 3], [(1, 2)]) are statically allocated by
   the compiler and cost nothing at run time. *)
let rec static_const (e : expression) =
  match e.exp_desc with
  | Texp_constant _ -> true
  | Texp_construct (_, _, args) -> List.for_all static_const args
  | Texp_tuple es -> List.for_all static_const es
  | Texp_variant (_, eo) -> (
      match eo with None -> true | Some e -> static_const e)
  | _ -> false

(* Syntactic parameter count of a definition; multi-branch [function]
   bodies take the minimum over branches so a full application is never
   mistaken for a partial one. *)
let rec spine_arity (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = []; _ } -> 1
  | Texp_function { cases; _ } ->
      1 + List.fold_left (fun m c -> min m (spine_arity c.c_rhs)) max_int cases
  | _ -> 0

let hot_attr (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      match a.attr_name.txt with "hot" | "analyze.hot" -> true | _ -> false)
    attrs

let cold_attr (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      match a.attr_name.txt with "cold" | "analyze.cold" -> true | _ -> false)
    attrs

(* ------------------------------------------------------------------ *)
(* Expression walk *)

let add_alloc acc akind aident asite =
  acc.allocs <- { Ir.akind; aident; asite } :: acc.allocs

let add_call ?(supplied = 0) ?(ret_arrow = false) acc callee csite =
  acc.calls <- { Ir.callee; csite; supplied; ret_arrow } :: acc.calls

(* ------------------------------------------------------------------ *)
(* Simplif ref-elimination model.

   [let r = ref e in body] where every use of [r] in [body] is a direct
   [!r], [r := v], [incr r] or [decr r] — and none sits under a nested
   [fun] (a closure captures the cell for real) — is rewritten by the
   compiler's [Simplif.eliminate_ref] pass into a mutable local
   variable: no heap cell is ever allocated, in bytecode or native
   code.  The scanner mirrors that rule exactly, so the idiomatic
   allocation-free loop style (an [int ref] as a loop cursor) is not
   flagged.  Refs that escape — passed to a function, returned, stored,
   or captured by a local closure — still count as [Ref_cell]
   allocations. *)

let ref_op_prims = [ "%field0"; "%setfield0"; "%incr"; "%decr" ]

let is_prim_named names (e : expression) =
  match e.exp_desc with
  | Texp_ident (_, _, { Types.val_kind = Types.Val_prim p; _ }) ->
      List.mem p.Primitive.prim_name names
  | _ -> false

let ref_eliminable id body =
  let ok = ref true in
  let in_fun = ref false in
  let open Tast_iterator in
  let expr it (e : expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident i, _, _) when Ident.same i id -> ok := false
    | Texp_apply
        ( head,
          (_, Some { exp_desc = Texp_ident (Path.Pident i, _, _); _ }) :: rest )
      when Ident.same i id && is_prim_named ref_op_prims head ->
        if !in_fun then ok := false;
        List.iter (fun (_, a) -> Option.iter (it.expr it) a) rest
    | Texp_function _ ->
        let saved = !in_fun in
        in_fun := true;
        default_iterator.expr it e;
        in_fun := saved
    | _ -> default_iterator.expr it e
  in
  let it = { default_iterator with expr } in
  it.expr it body;
  !ok

(* [let r = ref e in body] with [r] eliminable: returns the [ref]
   argument to walk in place of the whole binding expression. *)
let eliminable_ref_arg rf (vb : value_binding) body =
  match (rf, vb.vb_expr.exp_desc, pat_bound_idents vb.vb_pat) with
  | ( Asttypes.Nonrecursive,
      Texp_apply (head, [ (_, Some arg) ]),
      [ id ] )
    when is_prim_named [ "%makemutable" ] head && ref_eliminable id body ->
      Some arg
  | _ -> None

(* The stripped dotted name a value path denotes.  The typechecker has
   already resolved [open]; module aliases, structure-level
   ([module P = Printf]) or expression-local, are followed here.  A bare
   binder of the unit itself ([let compare = ...]) names nothing from
   outside: [None]. *)
let denoted ctx env ~scopes path =
  let rec follow fuel scopes name =
    let head = Tables.module_head name in
    let target =
      match SMap.find_opt head env.lmods with
      | Some (Ir.Plain t) -> Some (t, scopes)
      | Some (Ir.Apply _) -> None
      | None ->
          List.find_map
            (fun s ->
              match Hashtbl.find_opt ctx.prog.aliases (s ^ "." ^ head) with
              | Some (Ir.Plain t, ascopes) -> Some (t, ascopes)
              | _ -> None)
            scopes
    in
    match target with
    | Some (t, scopes) when fuel > 0 ->
        follow (fuel - 1) scopes (t ^ "." ^ suffix_after_head name)
    | _ -> name
  in
  match path with
  | Path.Pident id when not (Ident.global id) -> None
  | _ when Ident.global (Path.head path) ->
      Some (Tables.strip_stdlib (Path.name path))
  | _ -> Some (Tables.strip_stdlib (follow 10 scopes (Path.name path)))

(* Every value identifier the walk meets is checked twice: as a
   determinism-taint source (recorded on the function, for the sink
   traversal) and against the unit's bans (a finding right away). *)
let check_ident ctx env ~scopes acc path s =
  match denoted ctx env ~scopes path with
  | None -> ()
  | Some name -> (
      if Tables.taint_source name <> None then
        acc.taints <- { Ir.source = name; tsite = s } :: acc.taints;
      match Tables.ban ~hot:ctx.hot name with
      | None -> ()
      | Some b ->
          ctx.prog.bans <-
            {
              Ir.category = "ban-" ^ b.Tables.rule;
              ident = name;
              message = b.Tables.why;
              fsite_ = s;
              root = ctx.owner;
              witness = [];
            }
            :: ctx.prog.bans)

(* Resolve a dotted path text through expression-local module aliases.
   [Apply] aliases get a synthetic program-wide alias entry so the graph
   can expand them exactly like structure-level instantiations. *)
let rewrite_local ctx env ~scopes name head_name =
  match SMap.find_opt head_name env.lmods with
  | None -> name
  | Some (Ir.Plain t) -> t ^ "." ^ suffix_after_head name
  | Some (Ir.Apply _ as a) ->
      ctx.gensym <- ctx.gensym + 1;
      let key = Printf.sprintf "%s.<l%d>" (List.hd scopes) ctx.gensym in
      Hashtbl.replace ctx.prog.aliases key (a, scopes);
      key ^ "." ^ suffix_after_head name

let register_packed ctx name = Hashtbl.replace ctx.prog.packed name ()

let rec walk ctx ~scopes ~fparams acc env (e : expression) =
  let w = walk ctx ~scopes ~fparams acc in
  match e.exp_desc with
  | Texp_ident (path, _, vd) -> (
      let name = Path.name path in
      check_ident ctx env ~scopes acc path (site ctx e);
      match vd.Types.val_kind with
      | Types.Val_prim _ -> ()
      | _ ->
          let head = Ident.name (Path.head path) in
          let local = SMap.mem head env.locals in
          if (not local) && is_arrow e.exp_type then
            (* A bare function reference escaping into data/arguments:
               follow it if it resolves, stay silent otherwise. *)
            let name =
              match path with
              | Path.Pident _ -> name
              | _ -> rewrite_local ctx env ~scopes name head
            in
            add_call acc (Ir.Direct { path = name; escape = true }) (site ctx e))
  | Texp_apply (head, args) ->
      walk_apply ctx ~scopes ~fparams acc env e head args
  | Texp_function _ ->
      add_alloc acc Ir.Closure "<fun>" (site ctx e);
      walk_fn_spine ctx ~scopes ~fparams acc env e
  | Texp_let (rf, vbs, body) ->
      let env' =
        List.fold_left
          (fun env' vb ->
            match unpack_ident vb.vb_pat with
            | Some id ->
                {
                  env' with
                  unpacked = SMap.add (Ident.name id) () env'.unpacked;
                }
            | None ->
                let kind =
                  match vb.vb_expr.exp_desc with
                  | Texp_function _ -> Lfun
                  | _ -> Lval
                in
                add_binders ~kind env' (pat_bound_idents vb.vb_pat))
          env vbs
      in
      let rhs_env = match rf with Asttypes.Recursive -> env' | _ -> env in
      List.iter
        (fun vb ->
          match vb.vb_expr.exp_desc with
          | Texp_function _ ->
              let n =
                match pat_bound_idents vb.vb_pat with
                | [ id ] -> Ident.name id
                | _ -> "<fn>"
              in
              (* A function defined inside a function body closes over
                 its environment: one closure block per enclosing call
                 (constant closures excepted — reviewed via allowlist).
                 Its body's allocations are attributed to the enclosing
                 function, conservatively. *)
              add_alloc acc Ir.Closure n
                (Ir.site_of_loc ~file:ctx.file vb.vb_loc);
              walk_fn_spine ctx ~scopes ~fparams acc rhs_env vb.vb_expr
          | _ -> (
              match eliminable_ref_arg rf vb body with
              | Some arg ->
                  (* Simplif-eliminable ref: the cell never
                     materializes, only its initializer runs. *)
                  walk ctx ~scopes ~fparams acc rhs_env arg
              | None -> walk ctx ~scopes ~fparams acc rhs_env vb.vb_expr))
        vbs;
      walk ctx ~scopes ~fparams acc env' body
  | Texp_match (scrut, cases, _) ->
      w env scrut;
      List.iter (walk_case ctx ~scopes ~fparams acc env) cases
  | Texp_try (body, cases) ->
      w env body;
      List.iter (walk_case ctx ~scopes ~fparams acc env) cases
  | Texp_construct (_, cd, args) ->
      if args <> [] && not (static_const e) then
        add_alloc acc Ir.Construct cd.Types.cstr_name (site ctx e);
      List.iter (w env) args
  | Texp_record { fields; extended_expression; _ } ->
      if not (static_const e) then
        add_alloc acc Ir.Record
          (match e.exp_type |> Types.get_desc with
          | Types.Tconstr (p, _, _) -> Path.name p
          | _ -> "<record>")
          (site ctx e);
      Option.iter (w env) extended_expression;
      Array.iter
        (fun (_, def) ->
          match def with Overridden (_, e) -> w env e | Kept _ -> ())
        fields
  | Texp_tuple es ->
      if not (static_const e) then add_alloc acc Ir.Tuple "<tuple>" (site ctx e);
      List.iter (w env) es
  | Texp_variant (l, eo) ->
      (match eo with
      | Some _ when not (static_const e) ->
          add_alloc acc Ir.Variant l (site ctx e)
      | _ -> ());
      Option.iter (w env) eo
  | Texp_array es ->
      if es <> [] then add_alloc acc Ir.Array_lit "<array>" (site ctx e);
      List.iter (w env) es
  | Texp_lazy body ->
      add_alloc acc Ir.Lazy_val "<lazy>" (site ctx e);
      w env body
  | Texp_object _ | Texp_new _ | Texp_override _ | Texp_instvar _
  | Texp_setinstvar _ ->
      add_alloc acc Ir.Object_alloc "<object>" (site ctx e)
  | Texp_send (obj, _) ->
      add_call acc (Ir.Higher_order { label = "#method" }) (site ctx e);
      w env obj
  | Texp_letop { let_; ands; body; _ } ->
      (* Binding operators thread closures by construction. *)
      add_alloc acc Ir.Closure "<letop>" (site ctx e);
      w env let_.bop_exp;
      List.iter (fun (a : binding_op) -> w env a.bop_exp) ands;
      walk_case ctx ~scopes ~fparams acc env body
  | Texp_letmodule (id, _, _, mexpr, body) ->
      let env =
        match id with
        | None -> env
        | Some id -> (
            let n = Ident.name id in
            match (unwrap_mod mexpr).mod_desc with
            | Tmod_unpack (inner, _) ->
                w env inner;
                { env with unpacked = SMap.add n () env.unpacked }
            | Tmod_ident (p, _) ->
                { env with lmods = SMap.add n (Ir.Plain (Path.name p)) env.lmods }
            | Tmod_apply _ | Tmod_apply_unit _ -> (
                match decompose_apply mexpr [] with
                | Some (f, args) ->
                    {
                      env with
                      lmods =
                        SMap.add n
                          (Ir.Apply { functor_path = f; args })
                          env.lmods;
                    }
                | None -> env)
            | Tmod_structure str ->
                (* A local [module M = struct .. end]: building the module
                   allocates; calls into it stay conservative, but its
                   body is scanned as a pseudo-module so its identifiers
                   still meet the bans and its functions are summarized. *)
                add_alloc acc Ir.Closure "<local-module>" (site ctx e);
                ignore (scan_pseudo ctx ~scopes ~fparams "local" str : string);
                env
            | _ ->
                add_alloc acc Ir.Closure "<local-module>" (site ctx e);
                env)
      in
      w env body
  | Texp_pack mexpr -> scan_pack ctx ~scopes ~fparams acc mexpr
  | Texp_field (r, _, _) -> w env r
  | Texp_setfield (r, _, _, v) ->
      w env r;
      w env v
  | Texp_ifthenelse (c, t, f) ->
      w env c;
      w env t;
      Option.iter (w env) f
  | Texp_sequence (a, b) ->
      w env a;
      w env b
  | Texp_while (c, body) ->
      w env c;
      w env body
  | Texp_for (id, _, lo, hi, _, body) ->
      w env lo;
      w env hi;
      walk ctx ~scopes ~fparams acc (add_binders env [ id ]) body
  | Texp_assert (cond, _) -> w env cond
  | Texp_letexception (_, body) -> w env body
  | Texp_open (_, body) -> w env body
  | Texp_constant _ | Texp_unreachable | Texp_extension_constructor _ -> ()

and walk_case :
    type k.
      ctx -> scopes:string list -> fparams:string list -> acc -> env ->
      k case -> unit =
 fun ctx ~scopes ~fparams acc env c ->
  let env = bind_pat env c.c_lhs in
  Option.iter (walk ctx ~scopes ~fparams acc env) c.c_guard;
  walk ctx ~scopes ~fparams acc env c.c_rhs

(* Descend a function's parameter spine without flagging the spine
   itself as a closure: the cases' patterns are the parameters. *)
and walk_fn_spine ctx ~scopes ~fparams acc env (e : expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          let env = bind_pat env c.c_lhs in
          Option.iter (walk ctx ~scopes ~fparams acc env) c.c_guard;
          walk_fn_spine ctx ~scopes ~fparams acc env c.c_rhs)
        cases
  | _ -> walk ctx ~scopes ~fparams acc env e

and walk_apply ctx ~scopes ~fparams acc env whole head args =
  (* Flatten curried application chains: [x |> f a] and
     [t.handlers.(tag) i j] both typecheck as an apply whose head is
     itself an apply; combining the argument lists recovers the real
     head ([f], [Array.get]) instead of reporting an opaque [<expr>]
     higher-order site. *)
  match head.exp_desc with
  | Texp_apply (head2, args2) ->
      walk_apply ctx ~scopes ~fparams acc env whole head2 (args2 @ args)
  | _ -> walk_apply1 ctx ~scopes ~fparams acc env whole head args

and walk_apply1 ctx ~scopes ~fparams acc env whole head args =
  let s = site ctx head in
  (* Partial-application detection needs the callee's definition arity
     (types alone cannot tell [t -> unit -> unit] from a function that
     returns a stored closure), so calls carry the supplied count and
     whether the result is arrow-typed; {!Graph} decides after
     resolution.  Only primitives are decided here, from [prim_arity].
     An omitted optional argument makes the application partial. *)
  let supplied =
    List.length (List.filter (fun (_, a) -> a <> None) args)
  in
  let omitted = List.exists (fun (_, a) -> a = None) args in
  let ret_arrow = is_arrow whole.exp_type in
  let supplied = if omitted then 0 else supplied in
  let call = add_call ~supplied ~ret_arrow acc in
  (match head.exp_desc with
  | Texp_ident (path, _, vd) -> (
      let name = Path.name path in
      check_ident ctx env ~scopes acc path s;
      match vd.Types.val_kind with
      | Types.Val_prim p -> (
          if ret_arrow && supplied < p.Primitive.prim_arity then
            add_alloc acc Ir.Partial_apply
              (Tables.strip_stdlib name) (site ctx whole);
          (* Over-application: the primitive's result (e.g. a function
             fetched from an array) is itself called — an indirect call
             with a statically unknown target. *)
          if supplied > p.Primitive.prim_arity then
            call (Ir.Higher_order { label = "<indirect>" }) s;
          match Tables.classify_prim p with
          | Tables.Safe | Tables.Terminal -> ()
          | Tables.Alloc k -> add_alloc acc k (Tables.strip_stdlib name) s
          | Tables.Unknown ->
              add_alloc acc Ir.C_stub p.Primitive.prim_name s)
      | _ -> (
          let head_name = Ident.name (Path.head path) in
          match path with
          | Path.Pident _ -> (
              match SMap.find_opt head_name env.locals with
              | Some Lfun -> ()  (* local fn: body attributed inline *)
              | Some Lval -> call (Ir.Higher_order { label = head_name }) s
              | None -> call (Ir.Direct { path = name; escape = false }) s)
          | _ ->
              if SMap.mem head_name env.unpacked then
                call (Ir.First_class { member = suffix_after_head name }) s
              else if SMap.mem head_name env.lmods then
                call
                  (Ir.Direct
                     {
                       path = rewrite_local ctx env ~scopes name head_name;
                       escape = false;
                     })
                  s
              else if List.mem head_name fparams then
                call
                  (Ir.Functor_param
                     { param = head_name; member = suffix_after_head name })
                  s
              else call (Ir.Direct { path = name; escape = false }) s))
  | Texp_field (r, _, ld) ->
      call (Ir.Higher_order { label = "." ^ ld.Types.lbl_name }) s;
      walk ctx ~scopes ~fparams acc env r
  | _ ->
      call (Ir.Higher_order { label = "<expr>" }) s;
      walk ctx ~scopes ~fparams acc env head);
  List.iter
    (fun (_, a) -> Option.iter (walk ctx ~scopes ~fparams acc env) a)
    args

(* A packed module: [(module M)] registers M as a first-class dispatch
   candidate; [(module struct .. end)] is scanned as a pseudo-module so
   its members participate in conservative first-class resolution (this
   is how the [Kvserver.Design] registry entries stay analyzable). *)
and scan_pack ctx ~scopes ~fparams acc mexpr =
  match (unwrap_mod mexpr).mod_desc with
  | Tmod_ident (p, _) -> register_packed ctx (Path.name p)
  | Tmod_structure str ->
      register_packed ctx (scan_pseudo ctx ~scopes ~fparams "pack" str)
  | Tmod_apply _ | Tmod_apply_unit _ -> (
      match decompose_apply mexpr [] with
      | Some (f, args) ->
          ctx.gensym <- ctx.gensym + 1;
          let key = Printf.sprintf "%s.<p%d>" (List.hd scopes) ctx.gensym in
          Hashtbl.replace ctx.prog.aliases key
            (Ir.Apply { functor_path = f; args }, scopes);
          register_packed ctx key
      | None -> ())
  | _ -> ignore (acc : acc)

(* An anonymous structure inside an expression, scanned under a fresh
   synthetic module name, which is returned. *)
and scan_pseudo ctx ~scopes ~fparams tag str =
  ctx.gensym <- ctx.gensym + 1;
  let pseudo = Printf.sprintf "%s.<%s%d>" (List.hd scopes) tag ctx.gensym in
  scan_structure ctx ~scopes:(pseudo :: scopes) ~fparams str;
  pseudo

(* ------------------------------------------------------------------ *)
(* Structure scan *)

and scan_structure ctx ~scopes ~fparams (str : structure) =
  List.iter (scan_item ctx ~scopes ~fparams) str.str_items

and scan_item ctx ~scopes ~fparams item =
  match item.str_desc with
  | Tstr_value (_, vbs) ->
      List.iter (scan_binding ctx ~scopes ~fparams) vbs
  | Tstr_module mb -> scan_module ctx ~scopes ~fparams mb
  | Tstr_recmodule mbs -> List.iter (scan_module ctx ~scopes ~fparams) mbs
  | Tstr_include { incl_mod; _ } -> (
      (* [include struct .. end]: its items are the enclosing module's. *)
      match (unwrap_mod incl_mod).mod_desc with
      | Tmod_structure str -> scan_structure ctx ~scopes ~fparams str
      | _ -> ())
  | Tstr_eval (e, _) ->
      (* Module-initialization code: not reachable from any hot root,
         but packed modules registered here must still be seen. *)
      walk ctx ~scopes ~fparams (fresh_acc ()) env0 e
  | _ -> ()

and scan_binding ctx ~scopes ~fparams vb =
  match pat_bound_idents vb.vb_pat with
  | [ id ]
    when (match vb.vb_expr.exp_desc with Texp_function _ -> true | _ -> false)
         || is_arrow vb.vb_expr.exp_type ->
      let fname = List.hd scopes ^ "." ^ Ident.name id in
      let acc = fresh_acc () in
      let owner = ctx.owner in
      ctx.owner <- fname;
      walk_fn_spine ctx ~scopes ~fparams acc env0 vb.vb_expr;
      ctx.owner <- owner;
      let f =
        {
          Ir.fname;
          fsite = Ir.site_of_loc ~file:ctx.file vb.vb_loc;
          hot = hot_attr vb.vb_attributes;
          cold = cold_attr vb.vb_attributes;
          diverging = diverging vb.vb_expr.exp_type;
          arity = spine_arity vb.vb_expr;
          scopes;
          fparams;
          allocs = List.rev acc.allocs;
          calls = List.rev acc.calls;
          taints = List.rev acc.taints;
        }
      in
      (* Shadowing redefinitions: last definition wins (documented
         approximation; see DESIGN.md §13). *)
      Hashtbl.replace ctx.prog.funcs fname f
  | _ ->
      (* Non-function or destructuring binding: module-initialization
         code.  Walk it only to register packed modules. *)
      walk ctx ~scopes ~fparams (fresh_acc ()) env0 vb.vb_expr

and scan_module ctx ~scopes ~fparams mb =
  match mb.mb_name.txt with
  | None -> ()
  | Some name ->
      let qual = List.hd scopes ^ "." ^ name in
      let rec go fparams params_acc me =
        match (unwrap_mod me).mod_desc with
        | Tmod_ident (p, _) ->
            Hashtbl.replace ctx.prog.aliases qual
              (Ir.Plain (Path.name p), scopes)
        | Tmod_structure str ->
            if params_acc <> [] then
              Hashtbl.replace ctx.prog.functor_params qual
                (List.rev params_acc);
            scan_structure ctx ~scopes:(qual :: scopes) ~fparams str
        | Tmod_functor (param, body) ->
            let fparams, params_acc =
              match param with
              | Named (Some id, _, _) ->
                  (Ident.name id :: fparams, Ident.name id :: params_acc)
              | Named (None, _, _) | Unit -> (fparams, params_acc)
            in
            go fparams params_acc body
        | Tmod_apply _ | Tmod_apply_unit _ -> (
            match decompose_apply me [] with
            | Some (f, args) ->
                Hashtbl.replace ctx.prog.aliases qual
                  (Ir.Apply { functor_path = f; args }, scopes)
            | None -> ())
        | Tmod_unpack _ | Tmod_constraint _ -> ()
      in
      go fparams [] mb.mb_expr

(* ------------------------------------------------------------------ *)

let scan_unit (prog : Ir.program) (u : Loader.unit_info) =
  prog.units <- u.modname :: prog.units;
  let ctx =
    {
      prog;
      file = u.source;
      hot = Tables.is_hot_source u.source;
      owner = u.modname;
      gensym = 0;
    }
  in
  scan_structure ctx ~scopes:[ u.modname ] ~fparams:[] u.structure

let scan_units prog units = List.iter (scan_unit prog) units
