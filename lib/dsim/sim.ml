(* The clock lives in its own all-float record: float-only records use
   the flat layout, so the per-event [clock <- time] store does not box
   (it would in this mixed record). *)
type clock_cell = { mutable now_us : float }

type handle = Wheel.handle

let null_handle : handle = -1
let is_null (h : handle) = h = -1

type t = {
  clock : clock_cell;
  mutable seq : int;
  mutable processed : int;
  events : (unit -> unit) Wheel.t;
  mutable handlers : (int -> int -> unit) array;
  root_rng : Rng.t;
}

let nop () = ()

let unregistered_handler (_ : int) (_ : int) =
  invalid_arg "Sim: event fired for an unregistered handler tag"

let create ?(seed = 42) () =
  {
    clock = { now_us = 0.0 };
    seq = 0;
    processed = 0;
    events = Wheel.create ~dummy:nop ();
    handlers = [||];
    root_rng = Rng.create seed;
  }

let[@inline] now t = t.clock.now_us

let fork_rng t = Rng.split t.root_rng

let register_handler t f =
  let tag = Array.length t.handlers in
  let handlers = Array.make (tag + 1) unregistered_handler in
  Array.blit t.handlers 0 handlers 0 tag;
  handlers.(tag) <- f;
  t.handlers <- handlers;
  tag

(* Cold: only reached on a programming error, so the message formatting
   lives behind the raise and costs the hot path nothing. *)
let[@inline never] reject_past time now =
  invalid_arg
    ("Sim.schedule_at: time " ^ string_of_float time ^ " is before now "
   ^ string_of_float now)

let[@inline] schedule_at t time f =
  if time < t.clock.now_us then reject_past time t.clock.now_us;
  Wheel.add t.events ~time ~seq:t.seq f;
  t.seq <- t.seq + 1

let[@inline] schedule_after t delay f =
  if delay < 0.0 then invalid_arg "Sim.schedule_after: negative delay";
  schedule_at t (t.clock.now_us +. delay) f

let[@inline] schedule_call_at t time ~tag ~i ~j =
  if time < t.clock.now_us then reject_past time t.clock.now_us;
  Wheel.add_call t.events ~time ~seq:t.seq ~tag ~i ~j;
  t.seq <- t.seq + 1

let[@inline] schedule_call_after t delay ~tag ~i ~j =
  if delay < 0.0 then invalid_arg "Sim.schedule_call_after: negative delay";
  schedule_call_at t (t.clock.now_us +. delay) ~tag ~i ~j

let schedule_timer_after t delay ~tag ~i ~j =
  if delay < 0.0 then invalid_arg "Sim.schedule_timer_after: negative delay";
  let time = t.clock.now_us +. delay in
  let h = Wheel.add_timer t.events ~time ~seq:t.seq ~tag ~i ~j in
  t.seq <- t.seq + 1;
  h

let cancel t h = Wheel.cancel t.events h

(* One iteration of the event loop: advance the clock to the head event
   and dispatch it — through the handler table for typed events (no
   allocation), by calling the payload for closure events.  [min_time]
   locates and caches the head; the [head_*] reads and the removal then
   skip the repeated validity checks, and [run]'s loop reads the head
   time exactly once per event. *)
let[@inline] dispatch_head t time =
  t.clock.now_us <- time;
  t.processed <- t.processed + 1;
  let events = t.events in
  let tag = Wheel.head_tag events in
  if tag >= 0 then begin
    let i = Wheel.head_i events and j = Wheel.head_j events in
    Wheel.drop_head events;
    t.handlers.(tag) i j
  end
  else (Wheel.pop_head events) ()

(* The drain loops are top-level recursions, not local [let rec]s: a
   local recursive function captures its environment in a closure
   allocated on every [run] call, which the @analyze zero-allocation
   proof rejects. *)
let rec run_loop t events until =
  if not (Wheel.is_empty events) then begin
    let time = Wheel.min_time events in
    if time <= until then begin
      dispatch_head t time;
      run_loop t events until
    end
  end

let[@hot] run t ~until =
  run_loop t t.events until;
  if t.clock.now_us < until then t.clock.now_us <- until

let rec run_until_idle t =
  if not (Wheel.is_empty t.events) then begin
    dispatch_head t (Wheel.min_time t.events);
    run_until_idle t
  end

let pending_events t = Wheel.length t.events

let events_processed t = t.processed
