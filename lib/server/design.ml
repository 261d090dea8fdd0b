type knob =
  | Handoff_cores
  | Static_threshold
  | Large_rx_steal
  | Watchdog
  | Erew_dispatch

let knob_equal (a : knob) (b : knob) =
  match (a, b) with
  | Handoff_cores, Handoff_cores
  | Static_threshold, Static_threshold
  | Large_rx_steal, Large_rx_steal
  | Watchdog, Watchdog
  | Erew_dispatch, Erew_dispatch ->
      true
  | _ -> false

module type S = sig
  val name : string
  val aliases : string list
  val summary : string
  val knobs : knob list
  val make : Engine.t -> Engine.design
end

type t = (module S)

let name (d : t) =
  let module D = (val d) in
  D.name

let summary (d : t) =
  let module D = (val d) in
  D.summary

let knobs (d : t) =
  let module D = (val d) in
  D.knobs

let supports d k = List.exists (knob_equal k) (knobs d)

let make (d : t) =
  let module D = (val d) in
  D.make

let equal a b = String.equal (name a) (name b)

(* ---------------- builtins ---------------- *)

let minos : t =
  (module struct
    let name = Design_minos.name
    let aliases = [ "minos" ]
    let summary = "size-aware sharding: adaptive threshold + core partition"
    let knobs = [ Static_threshold; Large_rx_steal; Watchdog ]
    let make = Design_minos.make
  end)

let hkh : t =
  (module struct
    let name = Design_hkh.name
    let aliases = [ "hkh"; "keyhash" ]
    let summary = "hardware keyhash baseline (CREW GETs, keyed PUTs)"
    let knobs = [ Erew_dispatch ]
    let make = Design_hkh.make
  end)

let hkh_ws : t =
  (module struct
    let name = Design_hkh_ws.name
    let aliases = [ "hkh+ws"; "hkh_ws"; "hkhws"; "ws" ]
    let summary = "keyhash dispatch with idle-core work stealing"
    let knobs = []
    let make = Design_hkh_ws.make
  end)

let sho : t =
  (module struct
    let name = Design_sho.name
    let aliases = [ "sho" ]
    let summary = "static handoff cores forwarding by size class"
    let knobs = [ Handoff_cores ]
    let make = Design_sho.make
  end)

(* ---------------- registry ---------------- *)

let registry : t list ref = ref []

let spellings d =
  let module D = (val d : S) in
  String.lowercase_ascii D.name :: List.map String.lowercase_ascii D.aliases

let register d =
  let taken = List.concat_map spellings !registry in
  List.iter
    (fun s ->
      if List.exists (String.equal s) taken then
        invalid_arg ("Design.register: name or alias already taken: " ^ s))
    (spellings d);
  registry := !registry @ [ d ]

let () = List.iter register [ minos; hkh; hkh_ws; sho ]

let all () = !registry

let find s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun d -> List.exists (String.equal s) (spellings d)) !registry
