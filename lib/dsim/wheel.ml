(* Hierarchical timing wheel with the same total order as [Heap]:
   [(time, seq)] lexicographic.  See wheel.mli for the layout overview.

   Key disciplines that make this exact (bit-identical to the heap) rather
   than approximate like a kernel timer wheel:

   - Tick-match: a chain entry parked in slot [tick land mask] is only
     *ready* when the cursor tick equals the entry's own tick.  Entries
     whose tick differs are simply kept in the chain for a later rotation.
     This makes wrap-around collisions safe (an entry 256 ticks ahead
     shares a slot with a due entry and is just skipped), and it makes
     cursor rollback safe (an entry left behind the cursor is found again
     when the cursor returns to its tick).

   - Ready-run sort: all entries due at the cursor tick are collected into
     the [run] array and insertion-sorted by [(time, seq)], so sub-tick
     ordering and same-timestamp ties resolve exactly as the heap would.
     An [add] landing on the *active* run tick appends to the run and
     marks it dirty — the remaining unconsumed suffix is re-sorted before
     the next [min_*]/[pop] — because such an event may precede entries
     already collected.

   - Rollback: an [add] at a tick before the cursor (legal on the heap,
     and reachable through [run ~until], which leaves the clock past the
     last popped event) flushes the active run back into level-0 chains
     and rewinds the cursor.  Rare and paid for only when it happens.

   The arena is parallel arrays ([times] unboxed floats; [seqs], [tags],
   operand ints; values; [next] doubling as chain link and free-list
   link), so steady-state add/pop touch no allocator.  Cancellation is
   lazy: [cancel] marks the state and drops the value; the slot itself is
   reclaimed when a chain walk, run consumption, or far-heap pop next
   encounters it. *)

let bits = 8

let slots = 1 lsl bits

let mask = slots - 1

(* Arena ids are packed into the low 24 bits of a cancellation handle,
   the (masked) sequence number into the bits above — a stale handle
   whose slot was reused fails the sequence check. *)
let id_bits = 24

let id_limit = 1 lsl id_bits

let id_mask = id_limit - 1

let seq_mask = (1 lsl 38) - 1

(* Entry states.  Cancelled states are live states shifted by 3, so
   [st >= st_cancelled] tests cancellation and [st + 3] cancels. *)
let st_free = 0

let st_chain = 1 (* linked into an l0/l1 slot chain *)

let st_run = 2 (* collected into the ready run *)

let st_far = 3 (* parked in the far-future heap *)

let st_cancelled = 4 (* 4/5/6: cancelled while in chain/run/far *)

type 'a t = {
  inv_g : float; (* 1 / granularity: time -> tick scale *)
  far_cutoff : float; (* times >= this skip tick conversion entirely *)
  dummy : 'a;
  (* arena: parallel arrays indexed by entry id *)
  mutable times : float array;
  mutable seqs : int array;
  mutable tags : int array;
  mutable iargs : int array;
  mutable jargs : int array;
  mutable vals : 'a array;
  mutable next : int array; (* chain link, or free-list link when free *)
  mutable state : int array;
  mutable free_head : int;
  mutable live : int; (* pending non-cancelled events, anywhere *)
  mutable wheel_live : int; (* live events currently in l0/l1 chains *)
  (* wheel levels: slot heads, -1 = empty *)
  l0 : int array;
  l1 : int array;
  mutable cur0 : int; (* current level-0 tick *)
  (* ready run: entry ids due at [cur0], sorted by (time, seq) *)
  mutable run : int array;
  mutable run_pos : int;
  mutable run_len : int;
  mutable run_dirty : bool;
  (* cached minimum *)
  mutable head : int;
  mutable head_far : bool; (* min lives at the top of [far] *)
  mutable head_valid : bool;
  far : int Heap.t; (* far-future fallback, keyed like the wheel *)
}

type handle = int

(* The level-0 slot width. *)
let granularity_us = 0.25

let create ~dummy () =
  {
    inv_g = 1.0 /. granularity_us;
    far_cutoff = float_of_int (1 lsl 60) *. granularity_us;
    dummy;
    times = [||];
    seqs = [||];
    tags = [||];
    iargs = [||];
    jargs = [||];
    vals = [||];
    next = [||];
    state = [||];
    free_head = -1;
    live = 0;
    wheel_live = 0;
    l0 = Array.make slots (-1);
    l1 = Array.make slots (-1);
    cur0 = 0;
    run = [||];
    run_pos = 0;
    run_len = 0;
    run_dirty = false;
    head = -1;
    head_far = false;
    head_valid = false;
    far = Heap.create ~dummy:(-1) ();
  }

let length t = t.live

let is_empty t = t.live = 0

let capacity t = Array.length t.state

let tick_of t time = int_of_float (time *. t.inv_g)

let[@cold] grow t =
  let cap = Array.length t.state in
  let new_cap = if cap = 0 then 256 else 2 * cap in
  if new_cap > id_limit then invalid_arg "Wheel: pending-event limit exceeded";
  let times = Array.make new_cap 0.0 in
  let seqs = Array.make new_cap 0 in
  let tags = Array.make new_cap (-1) in
  let iargs = Array.make new_cap 0 in
  let jargs = Array.make new_cap 0 in
  let vals = Array.make new_cap t.dummy in
  let next = Array.make new_cap (-1) in
  let state = Array.make new_cap st_free in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.tags 0 tags 0 cap;
  Array.blit t.iargs 0 iargs 0 cap;
  Array.blit t.jargs 0 jargs 0 cap;
  Array.blit t.vals 0 vals 0 cap;
  Array.blit t.next 0 next 0 cap;
  Array.blit t.state 0 state 0 cap;
  (* thread the new slots onto the free list *)
  for i = cap to new_cap - 2 do
    next.(i) <- i + 1
  done;
  next.(new_cap - 1) <- t.free_head;
  t.free_head <- cap;
  t.times <- times;
  t.seqs <- seqs;
  t.tags <- tags;
  t.iargs <- iargs;
  t.jargs <- jargs;
  t.vals <- vals;
  t.next <- next;
  t.state <- state

let[@inline] alloc t =
  if t.free_head < 0 then grow t;
  let id = t.free_head in
  t.free_head <- t.next.(id);
  id

let free t id =
  t.state.(id) <- st_free;
  (* Typed slots never wrote [vals] (it still holds [dummy]), so only
     closure slots need the release store — skipping it spares the GC
     write barrier on the typed-event fast path. *)
  if t.tags.(id) < 0 then t.vals.(id) <- t.dummy;
  t.next.(id) <- t.free_head;
  t.free_head <- id

let[@cold] grow_run t =
  let cap = Array.length t.run in
  let new_cap = if cap = 0 then 64 else 2 * cap in
  let run = Array.make new_cap (-1) in
  Array.blit t.run 0 run 0 cap;
  t.run <- run

let append_run t id =
  if t.run_len = Array.length t.run then grow_run t;
  (* stay clean when appends arrive in key order (the common case:
     schedule-now events carry a larger seq than everything pending) *)
  (if (not t.run_dirty) && t.run_len > t.run_pos then begin
     let prev = t.run.(t.run_len - 1) in
     let pt = t.times.(prev) and it = t.times.(id) in
     if it < pt || (it = pt && t.seqs.(id) < t.seqs.(prev)) then
       t.run_dirty <- true
   end);
  t.run.(t.run_len) <- id;
  t.run_len <- t.run_len + 1

let sort_run t =
  let run = t.run and times = t.times and seqs = t.seqs in
  for k = t.run_pos + 1 to t.run_len - 1 do
    let id = run.(k) in
    let ti = times.(id) and si = seqs.(id) in
    let m = ref k in
    while
      !m > t.run_pos
      &&
      let p = run.(!m - 1) in
      let tp = times.(p) in
      ti < tp || (ti = tp && si < seqs.(p))
    do
      run.(!m) <- run.(!m - 1);
      decr m
    done;
    run.(!m) <- id
  done;
  t.run_dirty <- false

(* Flush the unconsumed run suffix back into level-0 chains and rewind
   the cursor: an [add] landed at a tick before [cur0].  The flushed
   entries sit ahead of the new cursor and are re-collected by
   tick-match when it returns to their tick. *)
let rewind t new_tick =
  for k = t.run_pos to t.run_len - 1 do
    let id = t.run.(k) in
    if t.state.(id) = st_run then begin
      t.state.(id) <- st_chain;
      t.wheel_live <- t.wheel_live + 1;
      let s = tick_of t t.times.(id) land mask in
      t.next.(id) <- t.l0.(s);
      t.l0.(s) <- id
    end
    else free t id (* cancelled while in the run *)
  done;
  t.run_pos <- 0;
  t.run_len <- 0;
  t.run_dirty <- false;
  t.cur0 <- new_tick

(* Place an entry whose time/seq/payload are already written.  Far-heap
   refill reuses this: the routing rules are relative to the current
   cursor, so a refilled entry lands in level 0 of the current window. *)
let insert_id t id =
  let time = t.times.(id) in
  if time >= t.far_cutoff then begin
    t.state.(id) <- st_far;
    Heap.add t.far ~time ~seq:t.seqs.(id) id
  end
  else begin
    let tick = tick_of t time in
    if t.run_pos < t.run_len && tick = t.cur0 then begin
      (* due at the active run tick: must enter the run, not the slot —
         it may order before entries already collected *)
      t.state.(id) <- st_run;
      append_run t id
    end
    else begin
      if tick < t.cur0 then rewind t tick;
      if tick - t.cur0 < slots then begin
        t.state.(id) <- st_chain;
        t.wheel_live <- t.wheel_live + 1;
        let s = tick land mask in
        t.next.(id) <- t.l0.(s);
        t.l0.(s) <- id
      end
      else begin
        let tick1 = tick asr bits in
        if tick1 - (t.cur0 asr bits) < slots then begin
          t.state.(id) <- st_chain;
          t.wheel_live <- t.wheel_live + 1;
          let s = tick1 land mask in
          t.next.(id) <- t.l1.(s);
          t.l1.(s) <- id
        end
        else begin
          t.state.(id) <- st_far;
          Heap.add t.far ~time ~seq:t.seqs.(id) id
        end
      end
    end
  end

(* Collect entries due exactly at [cur0] from its level-0 slot into the
   run; reclaim cancelled entries; keep the rest chained. *)
let collect t =
  let s = t.cur0 land mask in
  let id = ref t.l0.(s) in
  if !id >= 0 then begin
    let times = t.times and next = t.next and state = t.state in
    let kept = ref (-1) in
    while !id >= 0 do
      let i = !id in
      let nx = next.(i) in
      let st = state.(i) in
      if st >= st_cancelled then free t i
      else if tick_of t times.(i) = t.cur0 then begin
        state.(i) <- st_run;
        t.wheel_live <- t.wheel_live - 1;
        (* chain order is arbitrary, but [append_run] flags the run dirty
           exactly when an append lands out of (time, seq) order — so the
           common single-event tick skips the sort entirely *)
        append_run t i
      end
      else begin
        next.(i) <- !kept;
        kept := i
      end;
      id := nx
    done;
    t.l0.(s) <- !kept
  end

(* On entering a new level-1 window, move its due entries down to level
   0.  Entries from other rotations of the l1 slot are kept (tick-match
   at level 1). *)
let cascade t =
  let cur1 = t.cur0 asr bits in
  let s1 = cur1 land mask in
  let id = ref t.l1.(s1) in
  if !id >= 0 then begin
    let times = t.times and next = t.next and state = t.state in
    let kept = ref (-1) in
    while !id >= 0 do
      let i = !id in
      let nx = next.(i) in
      let st = state.(i) in
      if st >= st_cancelled then free t i
      else begin
        let tk = tick_of t times.(i) in
        if tk asr bits = cur1 then begin
          let s = tk land mask in
          next.(i) <- t.l0.(s);
          t.l0.(s) <- i
        end
        else begin
          next.(i) <- !kept;
          kept := i
        end
      end;
      id := nx
    done;
    t.l1.(s1) <- !kept
  end

(* Pull far-future entries due inside the current level-0 window back
   into the wheel.  Entries are pulled at most once each: anything still
   in the far heap is beyond the window end. *)
let refill t =
  let wend = ((t.cur0 asr bits) + 1) lsl bits in
  let continue_ = ref true in
  while !continue_ && not (Heap.is_empty t.far) do
    let ft = Heap.min_time t.far in
    if ft < t.far_cutoff && tick_of t ft < wend then begin
      let i = Heap.pop t.far in
      if t.state.(i) >= st_cancelled then free t i else insert_id t i
    end
    else continue_ := false
  done

(* Advance the cursor until a ready run is found.  Caller guarantees the
   run is drained and [wheel_live > 0] (or a refill just ran); each
   window crossing refills from the far heap and cascades level 1, so a
   live chain entry is always reached. *)
let rec seek t =
  t.run_pos <- 0;
  t.run_len <- 0;
  let wend = ((t.cur0 asr bits) + 1) lsl bits in
  let found = ref false in
  while (not !found) && t.cur0 < wend do
    collect t;
    if t.run_len > 0 then found := true else t.cur0 <- t.cur0 + 1
  done;
  if not !found then begin
    refill t;
    cascade t;
    if t.wheel_live > 0 then seek t
  end

let rec ensure_head t =
  if t.run_dirty then sort_run t;
  (* reclaim cancelled entries at the head of the run *)
  while t.run_pos < t.run_len && t.state.(t.run.(t.run_pos)) <> st_run do
    free t t.run.(t.run_pos);
    t.run_pos <- t.run_pos + 1
  done;
  if t.run_pos < t.run_len then begin
    t.head <- t.run.(t.run_pos);
    t.head_far <- false;
    t.head_valid <- true
  end
  else if t.wheel_live > 0 then begin
    seek t;
    ensure_head t
  end
  else begin
    (* every live event is in the far heap *)
    while not (Heap.is_empty t.far) && t.state.(Heap.min_value t.far) <> st_far do
      free t (Heap.pop t.far)
    done;
    let ft = Heap.min_time t.far in
    if ft >= t.far_cutoff then begin
      (* beyond tick arithmetic: serve straight from the heap *)
      t.head <- Heap.min_value t.far;
      t.head_far <- true;
      t.head_valid <- true
    end
    else begin
      (* the wheel is empty: jump the cursor to the next event *)
      let target = tick_of t ft in
      if target > t.cur0 then t.cur0 <- target;
      refill t;
      seek t;
      ensure_head t
    end
  end

let[@inline] add t ~time ~seq v =
  let id = alloc t in
  t.times.(id) <- time;
  t.seqs.(id) <- seq;
  t.tags.(id) <- -1;
  t.vals.(id) <- v;
  t.live <- t.live + 1;
  t.head_valid <- false;
  insert_id t id

let[@inline] add_call_id t ~time ~seq ~tag ~i ~j =
  let id = alloc t in
  t.times.(id) <- time;
  t.seqs.(id) <- seq;
  t.tags.(id) <- tag;
  t.iargs.(id) <- i;
  t.jargs.(id) <- j;
  t.live <- t.live + 1;
  t.head_valid <- false;
  insert_id t id;
  id

let[@inline] add_call t ~time ~seq ~tag ~i ~j =
  if tag < 0 then invalid_arg "Wheel.add_call: negative tag";
  ignore (add_call_id t ~time ~seq ~tag ~i ~j : int)

let add_timer t ~time ~seq ~tag ~i ~j =
  if tag < 0 then invalid_arg "Wheel.add_timer: negative tag";
  if seq < 0 then invalid_arg "Wheel.add_timer: negative seq";
  let id = add_call_id t ~time ~seq ~tag ~i ~j in
  ((seq land seq_mask) lsl id_bits) lor id

let cancel t h =
  let id = h land id_mask in
  if id >= Array.length t.state then false
  else begin
    let st = t.state.(id) in
    if
      st >= st_chain && st < st_cancelled
      && t.tags.(id) >= 0
      && t.seqs.(id) land seq_mask = h lsr id_bits
    then begin
      if st = st_chain then t.wheel_live <- t.wheel_live - 1;
      t.state.(id) <- st + 3;
      (* cancellable events are typed (tag >= 0): [vals] already holds
         [dummy], nothing to release *)
      t.live <- t.live - 1;
      t.head_valid <- false;
      true
    end
    else false
  end

let[@inline] min_time t =
  if t.live = 0 then invalid_arg "Wheel.min_time: empty wheel";
  if not t.head_valid then ensure_head t;
  t.times.(t.head)

let min_seq t =
  if t.live = 0 then invalid_arg "Wheel.min_seq: empty wheel";
  if not t.head_valid then ensure_head t;
  t.seqs.(t.head)

let min_tag t =
  if t.live = 0 then invalid_arg "Wheel.min_tag: empty wheel";
  if not t.head_valid then ensure_head t;
  t.tags.(t.head)

let min_i t =
  if t.live = 0 then invalid_arg "Wheel.min_i: empty wheel";
  if not t.head_valid then ensure_head t;
  t.iargs.(t.head)

let remove_head t =
  let id = t.head in
  if t.head_far then ignore (Heap.pop t.far : int)
  else t.run_pos <- t.run_pos + 1;
  t.live <- t.live - 1;
  t.head_valid <- false;
  free t id

let pop t =
  if t.live = 0 then invalid_arg "Wheel.pop: empty wheel";
  if not t.head_valid then ensure_head t;
  let v = t.vals.(t.head) in
  remove_head t;
  v

let drop t =
  if t.live = 0 then invalid_arg "Wheel.drop: empty wheel";
  if not t.head_valid then ensure_head t;
  remove_head t

(* Unchecked head accessors for the event-loop fast path: valid only
   between a [min_time] call (which validates the cached head) and the
   next mutation.  [Sim.step] reads the head once via [min_time] and then
   takes tag/operands/payload without re-running the validity checks. *)

let[@inline] head_tag t = t.tags.(t.head)

let[@inline] head_i t = t.iargs.(t.head)

let[@inline] head_j t = t.jargs.(t.head)

let[@inline] pop_head t =
  let v = t.vals.(t.head) in
  remove_head t;
  v

let[@inline] drop_head t = remove_head t

let clear t =
  Array.fill t.l0 0 slots (-1);
  Array.fill t.l1 0 slots (-1);
  Heap.clear t.far;
  let cap = Array.length t.state in
  if cap > 0 then begin
    Array.fill t.state 0 cap st_free;
    Array.fill t.vals 0 cap t.dummy;
    for i = 0 to cap - 2 do
      t.next.(i) <- i + 1
    done;
    t.next.(cap - 1) <- -1;
    t.free_head <- 0
  end
  else t.free_head <- -1;
  t.live <- 0;
  t.wheel_live <- 0;
  t.cur0 <- 0;
  t.run_pos <- 0;
  t.run_len <- 0;
  t.run_dirty <- false;
  t.head_valid <- false
