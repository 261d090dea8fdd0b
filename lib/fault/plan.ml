type corrupt = Nan | Scale of float

type event =
  | Core_stall of { core : int; from_us : float; until_us : float; factor : float }
  | Net_fault of {
      queue : int;
      from_us : float;
      until_us : float;
      drop : float;
      dup : float;
      reorder : float;
      reorder_max_us : float;
    }
  | Ring_squeeze of { queue : int; from_us : float; until_us : float; capacity : int }
  | Ctrl_delay of { from_us : float; until_us : float }
  | Ctrl_corrupt of { from_us : float; until_us : float; mode : corrupt }
  | Kill_server of { server : int; at_us : float }
  | Recover_server of { server : int; at_us : float }

type t = { name : string; events : event list }

let all = Syntax.all
let empty = { name = "empty"; events = [] }

(* ------------------------------------------------------------------ *)
(* Validation *)

let window_ok ~from_us ~until_us =
  Float.is_finite from_us && from_us >= 0.0 && until_us > from_us
  && not (Float.is_nan until_us)

let rate_ok r = Float.is_finite r && r >= 0.0 && r <= 1.0

let validate_event = function
  | Core_stall { core; from_us; until_us; factor } ->
      if core < all then Error "core-stall: bad core index"
      else if not (window_ok ~from_us ~until_us) then Error "core-stall: bad window"
      else if Float.is_nan factor || factor < 1.0 then
        Error "core-stall: factor must be >= 1"
      else Ok ()
  | Net_fault { queue; from_us; until_us; drop; dup; reorder; reorder_max_us } ->
      if queue < all then Error "net: bad queue index"
      else if not (window_ok ~from_us ~until_us) then Error "net: bad window"
      else if not (rate_ok drop && rate_ok dup && rate_ok reorder) then
        Error "net: rates must be in [0, 1]"
      else if drop +. dup +. reorder > 1.0 then
        Error "net: drop + dup + reorder must be <= 1"
      else if reorder > 0.0 && not (reorder_max_us > 0.0) then
        Error "net: reorder-max must be > 0 when reorder > 0"
      else if Float.is_nan reorder_max_us || reorder_max_us < 0.0 then
        Error "net: bad reorder-max"
      else Ok ()
  | Ring_squeeze { queue; from_us; until_us; capacity } ->
      if queue < all then Error "squeeze: bad queue index"
      else if not (window_ok ~from_us ~until_us) then Error "squeeze: bad window"
      else if capacity < 1 then Error "squeeze: capacity must be >= 1"
      else Ok ()
  | Ctrl_delay { from_us; until_us } ->
      if window_ok ~from_us ~until_us then Ok () else Error "ctrl-delay: bad window"
  | Ctrl_corrupt { from_us; until_us; mode } ->
      if not (window_ok ~from_us ~until_us) then Error "ctrl-corrupt: bad window"
      else (
        match mode with
        | Nan -> Ok ()
        | Scale s ->
            if Float.is_finite s && s > 0.0 then Ok ()
            else Error "ctrl-corrupt: scale must be finite and > 0")
  | Kill_server { server; at_us } ->
      if server < all then Error "kill-server: bad server index"
      else if not (Float.is_finite at_us && at_us >= 0.0) then
        Error "kill-server: bad instant"
      else Ok ()
  | Recover_server { server; at_us } ->
      if server < all then Error "recover-server: bad server index"
      else if not (Float.is_finite at_us && at_us >= 0.0) then
        Error "recover-server: bad instant"
      else Ok ()

let validate t =
  let rec go = function
    | [] -> Ok ()
    | e :: rest -> ( match validate_event e with Ok () -> go rest | Error _ as e -> e)
  in
  go t.events

(* ------------------------------------------------------------------ *)
(* Canned scenarios *)

let canned_names = [ "core-stall"; "loss10"; "overload"; "ctrl-corrupt" ]

let canned name ~cores ~warmup_us ~duration_us =
  let window = duration_us -. warmup_us in
  match name with
  | "core-stall" ->
      (* Slow one small-serving core by 50x across most of the measurement
         window.  Core 1: core 0 also runs the epoch aggregation and the
         tail cores serve larges, so 1 is a plain small core under every
         plan the default workload produces. *)
      let core = min 1 (cores - 1) in
      Some
        {
          name;
          events =
            [
              Core_stall
                {
                  core;
                  from_us = warmup_us +. (0.05 *. window);
                  until_us = warmup_us +. (0.85 *. window);
                  factor = 50.0;
                };
            ];
        }
  | "loss10" ->
      (* A degraded link: 10 % loss, 10 % retransmission echoes (double
         frames), 2 % late deliveries, on every RX queue, from mid-warmup
         to the end of the run. *)
      Some
        {
          name;
          events =
            [
              Net_fault
                {
                  queue = all;
                  from_us = 0.5 *. warmup_us;
                  until_us = infinity;
                  drop = 0.10;
                  dup = 0.10;
                  reorder = 0.02;
                  reorder_max_us = 200.0;
                };
            ];
        }
  | "overload" ->
      (* Every RX ring squeezed to a small capacity for the whole run:
         arrivals beyond the cap are tail-dropped, and a configured shed
         watermark kicks in well before the cap. *)
      Some
        {
          name;
          events =
            [
              Ring_squeeze
                { queue = all; from_us = 0.0; until_us = infinity; capacity = 192 };
            ];
        }
  | "ctrl-corrupt" ->
      (* The control loop misbehaves: NaN thresholds over the first half
         of the window, then stale (frozen) statistics to the end. *)
      Some
        {
          name;
          events =
            [
              Ctrl_corrupt
                {
                  from_us = warmup_us;
                  until_us = warmup_us +. (0.5 *. window);
                  mode = Nan;
                };
              Ctrl_delay
                { from_us = warmup_us +. (0.5 *. window); until_us = infinity };
            ];
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Textual format *)

let event_keys = function
  | "kill-server" | "recover-server" -> Some [ "server"; "at" ]
  | "core-stall" -> Some [ "from"; "until"; "core"; "factor" ]
  | "net" -> Some [ "from"; "until"; "queue"; "drop"; "dup"; "reorder"; "reorder-max" ]
  | "squeeze" -> Some [ "from"; "until"; "queue"; "capacity" ]
  | "ctrl-delay" -> Some [ "from"; "until" ]
  | "ctrl-corrupt" -> Some [ "from"; "until"; "mode" ]
  | _ -> None

let ( let* ) = Result.bind

let parse_event line keyword pairs =
  let float key ~default = Syntax.float line key pairs ~default in
  let index key ~default = Syntax.index line key pairs ~default in
  match keyword with
  | "kill-server" ->
      let* server = index "server" ~default:None in
      let* at_us = float "at" ~default:None in
      Ok (Kill_server { server; at_us })
  | "recover-server" ->
      let* server = index "server" ~default:None in
      let* at_us = float "at" ~default:None in
      Ok (Recover_server { server; at_us })
  | _ ->
  let* from_us = float "from" ~default:None in
  let* until_us = float "until" ~default:None in
  match keyword with
  | "core-stall" ->
      let* core = index "core" ~default:None in
      let* factor = float "factor" ~default:(Some infinity) in
      Ok (Core_stall { core; from_us; until_us; factor })
  | "net" ->
      let* queue = index "queue" ~default:(Some all) in
      let* drop = float "drop" ~default:(Some 0.0) in
      let* dup = float "dup" ~default:(Some 0.0) in
      let* reorder = float "reorder" ~default:(Some 0.0) in
      let* reorder_max_us = float "reorder-max" ~default:(Some 0.0) in
      Ok (Net_fault { queue; from_us; until_us; drop; dup; reorder; reorder_max_us })
  | "squeeze" ->
      let* queue = index "queue" ~default:(Some all) in
      let* capacity = Syntax.int line "capacity" pairs in
      Ok (Ring_squeeze { queue; from_us; until_us; capacity })
  | "ctrl-delay" -> Ok (Ctrl_delay { from_us; until_us })
  | "ctrl-corrupt" -> (
      match List.assoc_opt "mode" pairs with
      | None | Some "nan" -> Ok (Ctrl_corrupt { from_us; until_us; mode = Nan })
      | Some v when String.length v > 1 && v.[0] = 'x' -> (
          match float_of_string_opt (String.sub v 1 (String.length v - 1)) with
          | Some s -> Ok (Ctrl_corrupt { from_us; until_us; mode = Scale s })
          | None -> Syntax.fail line ("bad scale: '" ^ v ^ "'"))
      | Some v -> Syntax.fail line ("bad mode: '" ^ v ^ "' (want nan or x<float>)"))
  | kw -> Syntax.fail line ("unknown event '" ^ kw ^ "'")

let of_string ?(name = "custom") src =
  let* name, events = Syntax.parse ~name ~keys:event_keys ~event:parse_event src in
  let plan = { name; events } in
  match validate plan with Ok () -> Ok plan | Error msg -> Error msg

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> of_string ~name:(Filename.remove_extension (Filename.basename path)) src
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Rendering *)

let time v = if v = infinity then "end" else Syntax.float_to_string v
let index i = if i = all then "*" else string_of_int i

let event_fields = function
  | Core_stall { core; from_us; until_us; factor } ->
      ( "core-stall",
        [ ("core", index core); ("from", time from_us); ("until", time until_us);
          ("factor", time factor) ] )
  | Net_fault { queue; from_us; until_us; drop; dup; reorder; reorder_max_us } ->
      ( "net",
        [
          ("queue", index queue); ("from", time from_us); ("until", time until_us);
          ("drop", Syntax.float_to_string drop); ("dup", Syntax.float_to_string dup);
          ("reorder", Syntax.float_to_string reorder);
          ("reorder-max", Syntax.float_to_string reorder_max_us);
        ] )
  | Ring_squeeze { queue; from_us; until_us; capacity } ->
      ( "squeeze",
        [ ("queue", index queue); ("from", time from_us); ("until", time until_us);
          ("capacity", string_of_int capacity) ] )
  | Ctrl_delay { from_us; until_us } ->
      ("ctrl-delay", [ ("from", time from_us); ("until", time until_us) ])
  | Ctrl_corrupt { from_us; until_us; mode } ->
      ( "ctrl-corrupt",
        [
          ("from", time from_us); ("until", time until_us);
          ( "mode",
            match mode with Nan -> "nan" | Scale s -> "x" ^ Syntax.float_to_string s );
        ] )
  | Kill_server { server; at_us } ->
      ("kill-server", [ ("server", index server); ("at", time at_us) ])
  | Recover_server { server; at_us } ->
      ("recover-server", [ ("server", index server); ("at", time at_us) ])

let to_string t = Syntax.render ~name:t.name ~event:event_fields t.events
