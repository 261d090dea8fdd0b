(* Human-readable findings report with full call-path witnesses. *)

let pp_witness ppf (w : (string * Ir.site) list) =
  List.iteri
    (fun i (fn, site) ->
      if i = 0 then Format.fprintf ppf "    %s (root, %a)@," fn Ir.pp_site site
      else Format.fprintf ppf "    -> %s (called at %a)@," fn Ir.pp_site site)
    w

(* A ban finding has no witness: it is reported in its containing
   function whatever reaches it. *)
let pp_finding ppf (f : Ir.finding) =
  match f.Ir.witness with
  | [] ->
      Format.fprintf ppf "@[<v>%a: [%s] %s: %s@,  in: %s@]" Ir.pp_site
        f.Ir.fsite_ f.Ir.category f.Ir.ident f.Ir.message f.Ir.root
  | witness ->
      Format.fprintf ppf "@[<v>%a: [%s] %s: %s@,  root: %s@,  path:@,%a@]"
        Ir.pp_site f.Ir.fsite_ f.Ir.category f.Ir.ident f.Ir.message f.Ir.root
        pp_witness witness

let print_findings ~header findings =
  if findings <> [] then begin
    Format.printf "== %s (%d) ==@." header (List.length findings);
    List.iter (fun f -> Format.printf "%a@." pp_finding f) findings
  end

(* Stable ordering so output is diffable run to run. *)
let sort findings =
  List.sort
    (fun (a : Ir.finding) (b : Ir.finding) ->
      match compare a.fsite_.file b.fsite_.file with
      | 0 -> (
          match compare a.fsite_.line b.fsite_.line with
          | 0 -> compare (a.category, a.ident) (b.category, b.ident)
          | c -> c)
      | c -> c)
    findings

(* Dedup: the same site can be reached from several roots; keep the
   first (shortest-witness-first) occurrence per (category, ident,
   site). *)
let dedup findings =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (f : Ir.finding) ->
      let k = (f.category, f.ident, f.fsite_) in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    (List.sort
       (fun (a : Ir.finding) b ->
         compare (List.length a.witness) (List.length b.witness))
       findings)
