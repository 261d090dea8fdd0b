type 'reply t = {
  capacity : int;
  table : (int64, 'reply) Hashtbl.t;
  order : int64 Queue.t; (* insertion order, for FIFO eviction *)
}

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Dedup.create: capacity must be >= 1";
  { capacity; table = Hashtbl.create (min capacity 4096); order = Queue.create () }

let find t id = Hashtbl.find_opt t.table id

let mem t id = Hashtbl.mem t.table id

let size t = Hashtbl.length t.table


let insert t id reply =
  if Hashtbl.length t.table >= t.capacity then begin
    match Queue.take_opt t.order with
    | Some oldest -> Hashtbl.remove t.table oldest
    | None -> ()
  end;
  Hashtbl.replace t.table id reply;
  Queue.add id t.order

let execute t ~id f =
  match find t id with
  | Some reply -> (reply, `Replayed)
  | None ->
      let reply = f () in
      insert t id reply;
      (reply, `Fresh)
