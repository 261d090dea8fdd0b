type op = Get | Put of bytes | Delete | Scan of int

type request = {
  id : int64;
  op : op;
  mutable key : string;
  submitted_at : float;
  mutable obs_slot : int;
}

type status = Ok | Not_found | Overloaded

type reply = {
  request_id : int64;
  status : status;
  value : bytes option;
  value_size : int;
  served_by : int;
  completed_at : float;
}

let latency_us req rep = 1.0e6 *. (rep.completed_at -. req.submitted_at)
