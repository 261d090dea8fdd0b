(* Growable circular buffer.  Steady-state push/pop_exn touch only the
   backing array and a few int fields — no per-element cell (Stdlib.Queue)
   or option box.  Vacated slots are overwritten with [dummy] so popped
   values do not linger reachable from the buffer (same discipline as
   Dsim.Heap). *)

type 'a t = {
  mutable buf : 'a array; (* capacity is always a power of two *)
  mutable head : int; (* index of the front element *)
  mutable len : int;
  dummy : 'a;
}

let create ~dummy () =
  { buf = Array.make 16 dummy; head = 0; len = 0; dummy }

let[@cold] grow t =
  let cap = Array.length t.buf in
  let nbuf = Array.make (2 * cap) t.dummy in
  let tail_len = cap - t.head in
  Array.blit t.buf t.head nbuf 0 tail_len;
  Array.blit t.buf 0 nbuf tail_len t.head;
  t.buf <- nbuf;
  t.head <- 0

let[@inline] push t v =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- v;
  t.len <- t.len + 1

let[@inline never] empty_pop () = invalid_arg "Fifo.pop_exn: empty"

let[@inline] pop_exn t =
  if t.len = 0 then empty_pop ();
  let v = t.buf.(t.head) in
  t.buf.(t.head) <- t.dummy;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  v

let pop t = if t.len = 0 then None else Some (pop_exn t)

let peek_exn t =
  if t.len = 0 then invalid_arg "Fifo.peek_exn: empty";
  t.buf.(t.head)

let[@inline] length t = t.len

let[@inline] is_empty t = t.len = 0
