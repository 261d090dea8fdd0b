(* Messages are pooled: [send] reuses a record from [pool] instead of
   allocating, and completion is reported through the single [on_complete]
   callback installed at creation, keyed by the caller's [token] — so the
   steady-state TX path allocates nothing per message or per frame. *)
type message = {
  mutable full_frames_left : int;
  mutable full_frame_bytes : int;
  mutable last_frame_bytes : int; (* transmitted after all full frames *)
  mutable last_done : bool;
  mutable token : int;
}

(* Flat float cell: avoids boxing the per-frame busy-time accumulation
   (a float field in the mixed record below would box on every store). *)
type accum = { mutable v : float }

type t = {
  us_per_byte : float;
  queues : message Fifo.t array;
  pool : message Fifo.t; (* free messages for reuse *)
  mutable rr : int; (* next queue to consider *)
  mutable wire_busy : bool;
  busy_accum : accum;
  mutable total_bytes : int;
  schedule : float -> unit;
      (* arrange for [frame_done] to be called after the given delay: the
         wire serializes frames, so at most one callback is outstanding
         and the caller can wire it to a single preallocated (typed)
         simulator event — nothing is allocated per frame *)
  now : unit -> float;
  on_complete : int -> float -> unit;
  mutable inflight : message; (* message owning the frame on the wire *)
}

let dummy_message =
  {
    full_frames_left = 0;
    full_frame_bytes = 0;
    last_frame_bytes = 0;
    last_done = false;
    token = -1;
  }

let alloc_message t =
  if Fifo.is_empty t.pool then
    {
      full_frames_left = 0;
      full_frame_bytes = 0;
      last_frame_bytes = 0;
      last_done = false;
      token = -1;
    }
  else Fifo.pop_exn t.pool

let free_message t m =
  m.token <- -1;
  Fifo.push t.pool m

let message_done m = m.full_frames_left = 0 && m.last_done

(* Pick the next frame to put on the wire, round-robin over non-empty
   queues.  On success stores the owning message in [t.inflight] and
   returns the frame's wire bytes; returns -1 when every queue is empty
   (frames always cost at least their headers, so 0 is never a valid
   size). *)
let next_frame_bytes t =
  let n = Array.length t.queues in
  let rec scan i =
    if i >= n then -1
    else begin
      let qi = (t.rr + i) mod n in
      let q = t.queues.(qi) in
      if Fifo.is_empty q then scan (i + 1)
      else begin
        let m = Fifo.peek_exn q in
        t.rr <- (qi + 1) mod n;
        let bytes =
          if m.full_frames_left > 0 then begin
            m.full_frames_left <- m.full_frames_left - 1;
            m.full_frame_bytes
          end
          else begin
            m.last_done <- true;
            m.last_frame_bytes
          end
        in
        if message_done m then ignore (Fifo.pop_exn q);
        t.inflight <- m;
        bytes
      end
    end
  in
  scan 0

let pump t =
  let bytes = next_frame_bytes t in
  if bytes < 0 then t.wire_busy <- false
  else begin
    t.wire_busy <- true;
    let dt = float_of_int bytes *. t.us_per_byte in
    t.busy_accum.v <- t.busy_accum.v +. dt;
    t.total_bytes <- t.total_bytes + bytes;
    t.schedule dt
  end

let frame_done t =
  let m = t.inflight in
  if message_done m then begin
    t.on_complete m.token (t.now ());
    free_message t m
  end;
  pump t

let create ~gbps ~queues ~schedule ~now ~on_complete =
  if not (gbps > 0.0) then invalid_arg "Txsched.create: rate must be > 0";
  if queues < 1 then invalid_arg "Txsched.create: need at least one queue";
  {
    us_per_byte = 8.0e-3 /. gbps;
    queues = Array.init queues (fun _ -> Fifo.create ~dummy:dummy_message ());
    pool = Fifo.create ~dummy:dummy_message ();
    rr = 0;
    wire_busy = false;
    busy_accum = { v = 0.0 };
    total_bytes = 0;
    schedule;
    now;
    on_complete;
    inflight = dummy_message;
  }

let send t ~queue ~payload_bytes ~token =
  if payload_bytes < 0 then invalid_arg "Txsched.send: negative payload";
  let max_p = Frame.max_udp_payload in
  let full = payload_bytes / max_p in
  let rest = payload_bytes - (full * max_p) in
  let m = alloc_message t in
  let full_wire = Frame.wire_bytes_for_frame_payload max_p in
  (* A payload that is an exact multiple of the fragment size has no
     partial trailer; its "last frame" is one of the full ones. *)
  if rest = 0 && full > 0 then begin
    m.full_frames_left <- full - 1;
    m.full_frame_bytes <- full_wire;
    m.last_frame_bytes <- full_wire
  end
  else begin
    m.full_frames_left <- full;
    m.full_frame_bytes <- full_wire;
    m.last_frame_bytes <- Frame.wire_bytes_for_frame_payload rest
  end;
  m.last_done <- false;
  m.token <- token;
  Fifo.push t.queues.(queue) m;
  if not t.wire_busy then pump t

let busy t = t.wire_busy

let total_bytes t = t.total_bytes

let utilization t ~elapsed =
  if not (elapsed > 0.0) then invalid_arg "Txsched.utilization: elapsed must be > 0";
  Float.min 1.0 (t.busy_accum.v /. elapsed)

let reset_counters t =
  t.busy_accum.v <- 0.0;
  t.total_bytes <- 0

(* A message leaves its queue when its last frame goes on the wire, but
   it is pending until that frame is done. *)
let pending_messages t =
  Array.fold_left (fun acc q -> acc + Fifo.length q) 0 t.queues
  + if t.wire_busy && message_done t.inflight then 1 else 0
