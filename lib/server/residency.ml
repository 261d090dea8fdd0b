(* Model-side residency: which keys are in memory, their TTL deadlines and
   LRU state.  Drives the larger-than-memory and TTL scenarios in the DES
   without materializing values — sizes come from the dataset, so the
   conservation identity (populated + inserts = resident + evicted +
   expired) is exact.

   Hot-path discipline: every per-request operation is allocation-free.
   Key state lives in flat float/int arrays indexed by key id; the
   resident set is a dense array with a position index for O(1)
   swap-remove, which also gives the eviction sampler O(1) uniform picks. *)

type t = {
  dataset : Workload.Dataset.t;
  ttl_us : float; (* infinity = no TTL *)
  budget_bytes : int; (* max_int = no memory budget *)
  sweep_us : float option; (* background expiry-sweep period *)
  expire_at : float array; (* per key id; nan = not resident *)
  last_access : float array; (* per resident key id *)
  resident_ids : int array; (* dense prefix of length [resident] *)
  pos_of : int array; (* key id -> index in resident_ids, -1 if absent *)
  mutable resident : int;
  mutable mem_used : int;
  mutable sweep_pos : int; (* cursor into resident_ids for chunked sweeps *)
  (* counters *)
  mutable inserts : int;
  mutable evicted_keys : int;
  mutable expired_keys : int;
  mutable expired_misses : int;
}

let evict_sample = 5

let create ?(ttl_us = infinity) ?(budget_bytes = max_int) ?sweep_us dataset =
  if ttl_us <= 0.0 then invalid_arg "Residency.create: ttl_us must be positive";
  if budget_bytes <= 0 then invalid_arg "Residency.create: budget_bytes must be positive";
  (match sweep_us with
  | Some s when not (s > 0.0) -> invalid_arg "Residency.create: sweep_us must be positive"
  | Some _ | None -> ());
  let n = Workload.Dataset.n_keys dataset in
  {
    dataset;
    ttl_us;
    budget_bytes;
    sweep_us;
    expire_at = Array.make n nan;
    last_access = Array.make n 0.0;
    resident_ids = Array.make n 0;
    pos_of = Array.make n (-1);
    resident = 0;
    mem_used = 0;
    sweep_pos = 0;
    inserts = 0;
    evicted_keys = 0;
    expired_keys = 0;
    expired_misses = 0;
  }

let[@inline] size_of t id = Workload.Dataset.size_of_key t.dataset id

(* Remove from the dense set by swapping the last element into the hole. *)
let remove t id =
  let pos = t.pos_of.(id) in
  let last = t.resident - 1 in
  let moved = t.resident_ids.(last) in
  t.resident_ids.(pos) <- moved;
  t.pos_of.(moved) <- pos;
  t.resident <- last;
  t.pos_of.(id) <- -1;
  t.expire_at.(id) <- nan;
  t.mem_used <- t.mem_used - size_of t id;
  if t.sweep_pos > last then t.sweep_pos <- 0

let insert t ~now id =
  t.resident_ids.(t.resident) <- id;
  t.pos_of.(id) <- t.resident;
  t.resident <- t.resident + 1;
  t.expire_at.(id) <- now +. t.ttl_us;
  t.last_access.(id) <- now;
  t.mem_used <- t.mem_used + size_of t id

(* Sampled LRU: pick [evict_sample] random resident keys, evict the one
   with the oldest last access (Redis-style approximation — no global
   recency list to maintain on the hot path). *)
let evict_one t ~now rng =
  let victim = ref t.resident_ids.(Dsim.Rng.int rng t.resident) in
  for _ = 2 to evict_sample do
    let c = t.resident_ids.(Dsim.Rng.int rng t.resident) in
    if t.last_access.(c) < t.last_access.(!victim) then victim := c
  done;
  let id = !victim in
  (* A victim already past its deadline was dead weight, not working set:
     account it to the expiry leg, not the eviction leg. *)
  if t.expire_at.(id) <= now then t.expired_keys <- t.expired_keys + 1
  else t.evicted_keys <- t.evicted_keys + 1;
  remove t id

let populate t ~now =
  (* Fill in id order until the budget is reached — the initial resident
     prefix of a larger-than-memory dataset. *)
  let n = Workload.Dataset.n_keys t.dataset in
  let id = ref 0 in
  while !id < n && t.mem_used + size_of t !id <= t.budget_bytes do
    insert t ~now !id;
    t.inserts <- t.inserts + 1;
    incr id
  done;
  t.resident

(* GET path: true iff the key is resident and live at [now].  An expired
   resident key is reclaimed here (lazy expiry) and counts as a miss. *)
let on_get t ~now id =
  if t.pos_of.(id) < 0 then begin
    t.expired_misses <- t.expired_misses + 1;
    false
  end
  else if t.expire_at.(id) <= now then begin
    t.expired_keys <- t.expired_keys + 1;
    t.expired_misses <- t.expired_misses + 1;
    remove t id;
    false
  end
  else begin
    t.last_access.(id) <- now;
    true
  end

(* PUT path: (re)insert the key, refresh its deadline, and evict while
   over budget.  The new item itself is never the victim. *)
let on_put t ~now rng id =
  if t.pos_of.(id) >= 0 then begin
    t.expire_at.(id) <- now +. t.ttl_us;
    t.last_access.(id) <- now
  end
  else begin
    insert t ~now id;
    t.inserts <- t.inserts + 1
  end;
  while t.mem_used > t.budget_bytes && t.resident > 1 do
    evict_one t ~now rng
  done

(* One chunk of the background expiry sweep: examine up to [chunk]
   resident keys from the cursor, reclaiming lapsed ones.  Returns the
   number reclaimed.  The cursor wraps, so periodic chunks cover the whole
   set without a stop-the-world walk. *)
let sweep_step t ~now ~chunk =
  let reclaimed = ref 0 in
  let examined = ref 0 in
  while !examined < chunk && t.resident > 0 do
    if t.sweep_pos >= t.resident then t.sweep_pos <- 0;
    let id = t.resident_ids.(t.sweep_pos) in
    if t.expire_at.(id) <= now then begin
      t.expired_keys <- t.expired_keys + 1;
      remove t id;
      incr reclaimed
      (* [remove] swapped an unexamined key into [sweep_pos]; do not
         advance, so it is examined next. *)
    end
    else t.sweep_pos <- t.sweep_pos + 1;
    incr examined
  done;
  !reclaimed

let resident t = t.resident
let sweep_us t = t.sweep_us

let mem_used t = t.mem_used

let budget_bytes t = t.budget_bytes

let inserts t = t.inserts

let evicted_keys t = t.evicted_keys

let expired_keys t = t.expired_keys

let expired_misses t = t.expired_misses
