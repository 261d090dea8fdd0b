(* A single FIFO transmit line: a transmission occupies the line for
   [bytes * 8 / rate] µs, starting no earlier than the end of the previous
   one.  test_txsched checks that the frame-level scheduler degenerates to
   this model on one queue; test_netsim checks the model itself. *)

type t = {
  us_per_byte : float;
  mutable busy_until : float;
  mutable busy_accum : float; (* µs spent transmitting since last reset *)
  mutable total_bytes : int;
}

let create ~gbps =
  if not (gbps > 0.0) then invalid_arg "Txlink.create: rate must be > 0";
  (* bytes -> µs: 8 bits / (gbps * 1e9 bits/s) = 8e-3 / gbps µs per byte. *)
  { us_per_byte = 8.0e-3 /. gbps; busy_until = 0.0; busy_accum = 0.0; total_bytes = 0 }

(* Enqueue [bytes] on the wire; returns the completion time. *)
let transmit t ~now ~bytes =
  if bytes < 0 then invalid_arg "Txlink.transmit: negative size";
  let start = Float.max now t.busy_until in
  let duration = float_of_int bytes *. t.us_per_byte in
  t.busy_until <- start +. duration;
  t.busy_accum <- t.busy_accum +. duration;
  t.total_bytes <- t.total_bytes + bytes;
  t.busy_until

let total_bytes t = t.total_bytes

(* Fraction of [elapsed] µs the line spent transmitting, in [0, 1]. *)
let utilization t ~elapsed =
  if not (elapsed > 0.0) then invalid_arg "Txlink.utilization: elapsed must be > 0";
  Float.min 1.0 (t.busy_accum /. elapsed)

(* Zero the counters without forgetting the current line occupancy. *)
let reset_counters t =
  t.busy_accum <- 0.0;
  t.total_bytes <- 0
