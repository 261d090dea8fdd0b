type 'a t = 'a Fifo.t array

let create ~queues ~dummy =
  if queues <= 0 then invalid_arg "Nic.create: need at least one queue";
  Array.init queues (fun _ -> Fifo.create ~dummy ())

let rx t i = t.(i)

let deliver t ~queue v = Fifo.push t.(queue) v
