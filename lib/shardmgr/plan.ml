(* A reshard plan is the elastic counterpart of a fault plan: a named
   list of timed reconfiguration events in the same textual key=value
   format (Fault.Plan), so chaos and reshard scenarios read alike and
   can be driven through the same harnesses. *)

type event =
  | Add_server of { at_us : float; drain_us : float; dual_us : float }
  | Remove_server of {
      server : int;
      at_us : float;
      drain_us : float;
      dual_us : float;
    }
  | Add_replica of { shard : int; at_us : float }
  | Drop_replica of { shard : int; at_us : float }

type t = { name : string; events : event list }

let empty = { name = "noop"; events = [] }

let replicated ~shards ~mirrors =
  let round _ = List.init shards (fun shard -> Add_replica { shard; at_us = 0.0 }) in
  { name = "replicated"; events = List.concat (List.init mirrors round) }

let at_us = function
  | Add_server { at_us; _ }
  | Remove_server { at_us; _ }
  | Add_replica { at_us; _ }
  | Drop_replica { at_us; _ } -> at_us

(* Membership changes own a three-phase window [at, at+drain+dual):
   drain, then dual-route, then (per key group, staggered inside the
   dual phase) cutover.  Replica events are instants. *)
let window = function
  | Add_server { at_us; drain_us; dual_us } ->
      Some (at_us, at_us +. drain_us +. dual_us)
  | Remove_server { at_us; drain_us; dual_us; _ } ->
      Some (at_us, at_us +. drain_us +. dual_us)
  | Add_replica _ | Drop_replica _ -> None

(* ------------------------------------------------------------------ *)
(* Validation *)

let phases_ok ~at_us ~drain_us ~dual_us =
  Float.is_finite at_us && at_us >= 0.0
  && Float.is_finite drain_us && drain_us >= 0.0
  && Float.is_finite dual_us && dual_us >= 0.0

let validate_event = function
  | Add_server { at_us; drain_us; dual_us } ->
      if phases_ok ~at_us ~drain_us ~dual_us then Ok ()
      else Error "add-server: at/drain/dual must be finite and >= 0"
  | Remove_server { server; at_us; drain_us; dual_us } ->
      if server < 0 then Error "remove-server: bad server index"
      else if phases_ok ~at_us ~drain_us ~dual_us then Ok ()
      else Error "remove-server: at/drain/dual must be finite and >= 0"
  | Add_replica { shard; at_us } ->
      if shard < 0 then Error "add-replica: bad shard index"
      else if Float.is_finite at_us && at_us >= 0.0 then Ok ()
      else Error "add-replica: at must be finite and >= 0"
  | Drop_replica { shard; at_us } ->
      if shard < 0 then Error "drop-replica: bad shard index"
      else if Float.is_finite at_us && at_us >= 0.0 then Ok ()
      else Error "drop-replica: at must be finite and >= 0"

(* Migration windows must not overlap: the routing table handles one
   membership change at a time (epochs are totally ordered). *)
let windows_disjoint events =
  let ws = List.filter_map window events in
  let ws = List.sort (fun (a, _) (b, _) -> Float.compare a b) ws in
  let rec go = function
    | (_, e1) :: ((s2, _) :: _ as rest) ->
        if s2 < e1 then Error "migration windows overlap" else go rest
    | _ -> Ok ()
  in
  go ws

let validate t =
  let rec go = function
    | [] -> windows_disjoint t.events
    | e :: rest -> (
        match validate_event e with Ok () -> go rest | Error _ as e -> e)
  in
  go t.events

(* ------------------------------------------------------------------ *)
(* Canned scenarios (times as fractions of the measurement window, so
   the same name works at quick and full scale) *)

let canned_names = [ "noop"; "add-remove"; "replica-cycle" ]

let canned name ~warmup_us ~duration_us =
  let w = duration_us -. warmup_us in
  match name with
  | "noop" -> Some { empty with name }
  | "add-remove" ->
      (* One server joins early in the window, another leaves later:
         both migrations complete well before the run ends. *)
      Some
        {
          name;
          events =
            [
              Add_server
                {
                  at_us = warmup_us +. (0.10 *. w);
                  drain_us = 0.05 *. w;
                  dual_us = 0.20 *. w;
                };
              Remove_server
                {
                  server = 1;
                  at_us = warmup_us +. (0.55 *. w);
                  drain_us = 0.03 *. w;
                  dual_us = 0.15 *. w;
                };
            ];
        }
  | "replica-cycle" ->
      Some
        {
          name;
          events =
            [
              Add_replica { shard = 0; at_us = warmup_us +. (0.20 *. w) };
              Drop_replica { shard = 0; at_us = warmup_us +. (0.70 *. w) };
            ];
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Textual format: the fault plans' syntax ({!Fault.Syntax}) *)

let event_keys = function
  | "add-server" -> Some [ "at"; "drain"; "dual" ]
  | "remove-server" -> Some [ "at"; "server"; "drain"; "dual" ]
  | "add-replica" | "drop-replica" -> Some [ "at"; "shard" ]
  | _ -> None

let ( let* ) = Result.bind

let parse_event line keyword pairs =
  let float key ~default = Fault.Syntax.float line key pairs ~default in
  let index key = Fault.Syntax.index line key pairs ~default:None in
  let* at_us = float "at" ~default:None in
  match keyword with
  | "add-server" ->
      let* drain_us = float "drain" ~default:(Some 2000.0) in
      let* dual_us = float "dual" ~default:(Some 10000.0) in
      Ok (Add_server { at_us; drain_us; dual_us })
  | "remove-server" ->
      let* server = index "server" in
      let* drain_us = float "drain" ~default:(Some 2000.0) in
      let* dual_us = float "dual" ~default:(Some 10000.0) in
      Ok (Remove_server { server; at_us; drain_us; dual_us })
  | "add-replica" ->
      let* shard = index "shard" in
      Ok (Add_replica { shard; at_us })
  | "drop-replica" ->
      let* shard = index "shard" in
      Ok (Drop_replica { shard; at_us })
  | kw -> Fault.Syntax.fail line ("unknown event '" ^ kw ^ "'")

let of_string ?(name = "custom") src =
  let* name, events = Fault.Syntax.parse ~name ~keys:event_keys ~event:parse_event src in
  let plan = { name; events } in
  match validate plan with Ok () -> Ok plan | Error msg -> Error msg

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> of_string ~name:(Filename.remove_extension (Filename.basename path)) src
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Rendering *)

let event_fields =
  let time = Fault.Syntax.float_to_string in
  function
  | Add_server { at_us; drain_us; dual_us } ->
      ("add-server", [ ("at", time at_us); ("drain", time drain_us); ("dual", time dual_us) ])
  | Remove_server { server; at_us; drain_us; dual_us } ->
      ( "remove-server",
        [ ("server", string_of_int server); ("at", time at_us); ("drain", time drain_us);
          ("dual", time dual_us) ] )
  | Add_replica { shard; at_us } ->
      ("add-replica", [ ("shard", string_of_int shard); ("at", time at_us) ])
  | Drop_replica { shard; at_us } ->
      ("drop-replica", [ ("shard", string_of_int shard); ("at", time at_us) ])

let to_string t = Fault.Syntax.render ~name:t.name ~event:event_fields t.events
