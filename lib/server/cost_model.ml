type t = {
  base_cpu_us : float;
  per_packet_us : float;
  per_byte_us : float;
  pipeline_latency_us : float;
  poll_us : float;
  handoff_us : float;
  steal_us : float;
  lock_us : float;
  profile_us : float;
  epoch_aggregate_us : float;
}

(* Calibration (see DESIGN.md §3): the NIC must be the first bottleneck on
   the default workload, as on the paper's platform — mean TX bytes/op
   ≈ 810 B gives a 40 Gbit ceiling of ≈ 6.2 Mops (the paper's peak, at 93 %
   NIC utilization), while 8 cores at ≈ 1.03 µs CPU/op could do ≈ 7.7 Mops.
   The ≈ 5 µs no-load mean service latency comes from pipeline + CPU +
   wire. *)
let default =
  {
    base_cpu_us = 0.75;
    per_packet_us = 0.10;
    per_byte_us = 0.0002;
    pipeline_latency_us = 3.5;
    poll_us = 0.2;
    handoff_us = 0.18;
    steal_us = 0.3;
    lock_us = 0.05;
    profile_us = 0.03;
    epoch_aggregate_us = 100.0;
  }

let key_size = 8

type op = Workload.Generator.op = Get | Put | Scan

(* For a SCAN, [item_size] is the total bytes of the scanned range: the
   reply carries them all, so the per-byte and per-frame terms below price
   the whole range exactly like an equally-sized GET. *)
let reply_payload op ~item_size =
  match op with
  | Get | Scan -> Proto.Wire.get_reply_size ~value_len:item_size
  | Put -> Proto.Wire.put_reply_size

let request_payload op ~item_size =
  match op with
  | Get -> Proto.Wire.get_request_size ~key_len:key_size
  | Put -> Proto.Wire.put_request_size ~key_len:key_size ~value_len:item_size
  | Scan -> Proto.Wire.scan_request_size ~key_len:key_size

let request_frames op ~item_size =
  Netsim.Frame.frames_for_payload (request_payload op ~item_size)

let reply_frames op ~item_size =
  Netsim.Frame.frames_for_payload (reply_payload op ~item_size)

let cpu_time t op ~item_size =
  (* The dominant per-byte work is on the side that carries the value:
     the reply for a GET, the request for a PUT. *)
  let frames = request_frames op ~item_size + reply_frames op ~item_size in
  t.base_cpu_us
  +. (t.per_packet_us *. float_of_int frames)
  +. (t.per_byte_us *. float_of_int item_size)

type cost_fn = Packets | Bytes | Constant_plus_bytes of float

let request_cost fn op ~item_size =
  match fn with
  | Packets ->
      (* "either the number of packets in an incoming PUT request or the
         number of packets in an outgoing GET reply" (§3) *)
      float_of_int
        (match op with
        | Get -> reply_frames Get ~item_size
        | Put -> request_frames Put ~item_size
        | Scan -> reply_frames Scan ~item_size)
  | Bytes -> float_of_int item_size
  | Constant_plus_bytes c -> c +. float_of_int item_size

let cost_fn_name = function
  | Packets -> "packets"
  | Bytes -> "bytes"
  | Constant_plus_bytes c -> Printf.sprintf "const(%.0f)+bytes" c

let cost_of_size fn size =
  let item_size = int_of_float (Float.max 0.0 size) in
  request_cost fn Get ~item_size
