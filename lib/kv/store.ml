type guard = [ `Crew | `Lock ]

let slots_per_bucket = 7

type slot = {
  mutable tag : int; (* 0 = empty *)
  mutable key : string;
  mutable region : Slab.region option;
  mutable expires_at : float; (* absolute deadline; infinity = no TTL *)
}

type bucket = { slots : slot array; mutable overflow : bucket option }

type chain = { epoch : int Atomic.t; head : bucket }

type partition = { chains : chain array; lock : Spinlock.t }

type t = {
  partition_bits : int;
  bucket_bits : int;
  partitions : partition array;
  slab : Slab.t;
  slab_lock : Spinlock.t;
      (* One slab serves every partition, so writers of two partitions
         share its free lists: [alloc] and [free] run under this lock.
         Copying into an allocated region needs no lock, since the region
         belongs to its writer alone. *)
  items : int Atomic.t;
  overflow_count : int Atomic.t;
  expired : int Atomic.t;
  ordered : Ordered.t; (* off until [ensure_ordered] *)
}

let fresh_bucket () =
  {
    slots =
      Array.init slots_per_bucket (fun _ ->
          { tag = 0; key = ""; region = None; expires_at = infinity });
    overflow = None;
  }

let create ?(partition_bits = 4) ?(bucket_bits = 10) ?(value_arena_bytes = 256 * 1024 * 1024)
    () =
  let n_part = 1 lsl partition_bits in
  let n_buck = 1 lsl bucket_bits in
  let mk_partition _ =
    {
      chains =
        Array.init n_buck (fun _ -> { epoch = Atomic.make 0; head = fresh_bucket () });
      lock = Spinlock.create ();
    }
  in
  {
    partition_bits;
    bucket_bits;
    partitions = Array.init n_part mk_partition;
    slab = Slab.create ~capacity:value_arena_bytes;
    slab_lock = Spinlock.create ();
    items = Atomic.make 0;
    overflow_count = Atomic.make 0;
    expired = Atomic.make 0;
    ordered = Ordered.create ();
  }

let partition_count t = Array.length t.partitions

let locate t key =
  let h = Keyhash.hash key in
  let p = Keyhash.partition_of h ~bits:t.partition_bits in
  let b = Keyhash.bucket_of h ~bits:t.bucket_bits in
  let tag = Keyhash.tag_of h in
  (t.partitions.(p), t.partitions.(p).chains.(b), tag)

let partition_of_key t key =
  Keyhash.partition_of (Keyhash.hash key) ~bits:t.partition_bits

(* Walk the bucket chain, applying [f] to each slot whose tag matches and
   whose key equals [key].  Returns [f]'s result for the first match. *)
let rec find_slot bucket tag key =
  let rec scan i =
    if i >= slots_per_bucket then None
    else begin
      let s = bucket.slots.(i) in
      if s.tag = tag && String.equal s.key key then Some s else scan (i + 1)
    end
  in
  match scan 0 with
  | Some _ as r -> r
  | None -> ( match bucket.overflow with None -> None | Some b -> find_slot b tag key)

(* Optimistic read: retry while a writer holds the chain epoch odd or the
   epoch changed underneath us. *)
let optimistic_read chain f =
  let rec attempt () =
    let e1 = Atomic.get chain.epoch in
    if e1 land 1 = 1 then begin
      Domain.cpu_relax ();
      attempt ()
    end
    else begin
      let result = f () in
      let e2 = Atomic.get chain.epoch in
      if e1 = e2 then result
      else begin
        Domain.cpu_relax ();
        attempt ()
      end
    end
  in
  attempt ()

(* Lazy expiry: a read at [now] past the slot's deadline answers as if
   the item were absent.  The slot itself is reclaimed by [expire] /
   [expire_sweep] — readers hold no write permission under the epoch
   protocol.  The [neg_infinity] default makes the check free for callers
   without a clock. *)
let read_into ?(now = neg_infinity) t key ~buf ~off =
  let _, chain, tag = locate t key in
  optimistic_read chain (fun () ->
      match find_slot chain.head tag key with
      | Some { region = Some r; expires_at; _ } when now < expires_at ->
          (* [len] is read once: a writer may free this region and another
             reuse it mid-copy, and the epoch check then discards the copy,
             but its length must still fit the buffer sized for it. *)
          let len = r.Slab.len in
          Slab.blit_to t.slab r ~len (buf len) off;
          len
      | Some _ | None -> -1)

let get ?now t key =
  let value = ref Bytes.empty in
  let fresh len =
    value := Bytes.create len;
    !value
  in
  if read_into ?now t key ~buf:fresh ~off:0 < 0 then None else Some !value

let size_of ?(now = neg_infinity) t key =
  let _, chain, tag = locate t key in
  optimistic_read chain (fun () ->
      match find_slot chain.head tag key with
      | Some s when now < s.expires_at -> (
          match s.region with Some r -> Some r.Slab.len | None -> None)
      | Some _ | None -> None)

let mem ?now t key = size_of ?now t key <> None

(* Find an empty slot in the chain, extending it with an overflow bucket if
   necessary.  Must be called inside the write critical section. *)
let rec empty_slot t bucket =
  let rec scan i =
    if i >= slots_per_bucket then None
    else if bucket.slots.(i).tag = 0 then Some bucket.slots.(i)
    else scan (i + 1)
  in
  match scan 0 with
  | Some s -> s
  | None -> (
      match bucket.overflow with
      | Some b -> empty_slot t b
      | None ->
          let b = fresh_bucket () in
          bucket.overflow <- Some b;
          Atomic.incr t.overflow_count;
          b.slots.(0))

let begin_write chain = Atomic.incr chain.epoch (* even -> odd *)

let end_write chain = Atomic.incr chain.epoch (* odd -> even *)

let with_guard partition guard f =
  match guard with
  | `Crew -> f ()
  | `Lock -> Spinlock.with_lock partition.lock f

let slab_alloc t len = Spinlock.with_lock t.slab_lock (fun () -> Slab.alloc t.slab len)

let slab_free t r = Spinlock.with_lock t.slab_lock (fun () -> Slab.free t.slab r)

let put ?(expires_at = infinity) t ~guard key value =
  let partition, chain, tag = locate t key in
  with_guard partition guard (fun () ->
      match find_slot chain.head tag key with
      | Some s ->
          let old = s.region in
          (* Allocate and fill the new region before publishing it, so
             readers never observe a partially written value for the new
             pointer; the epoch protocol covers the pointer swap itself. *)
          let r = slab_alloc t (Bytes.length value) in
          Slab.write t.slab r value;
          begin_write chain;
          s.region <- Some r;
          s.expires_at <- expires_at;
          end_write chain;
          (match old with Some r0 -> slab_free t r0 | None -> ())
      | None ->
          let r = slab_alloc t (Bytes.length value) in
          Slab.write t.slab r value;
          begin_write chain;
          let s = empty_slot t chain.head in
          s.key <- key;
          s.region <- Some r;
          s.expires_at <- expires_at;
          s.tag <- tag (* publish last: readers scan by tag *);
          end_write chain;
          Atomic.incr t.items;
          Ordered.add t.ordered key)

(* Clear a slot inside the write critical section of its chain. *)
let clear_slot t chain s =
  let old = s.region in
  begin_write chain;
  let key = s.key in
  s.tag <- 0;
  s.key <- "";
  s.region <- None;
  s.expires_at <- infinity;
  end_write chain;
  (match old with Some r -> slab_free t r | None -> ());
  Atomic.decr t.items;
  Ordered.remove t.ordered key

let delete t ~guard key =
  let partition, chain, tag = locate t key in
  with_guard partition guard (fun () ->
      match find_slot chain.head tag key with
      | Some s ->
          clear_slot t chain s;
          true
      | None -> false)

let expire t ~guard ~now key =
  let partition, chain, tag = locate t key in
  with_guard partition guard (fun () ->
      match find_slot chain.head tag key with
      | Some s when s.expires_at <= now ->
          clear_slot t chain s;
          Atomic.incr t.expired;
          true
      | Some _ | None -> false)

let expire_sweep t ~now =
  (* Background reclamation of lapsed slots.  Always takes the partition
     spinlock: the sweeper is not a partition master, so CREW does not
     cover it. *)
  let removed = ref 0 in
  let rec sweep_bucket chain b =
    Array.iter
      (fun s ->
        if s.tag <> 0 && s.expires_at <= now then begin
          clear_slot t chain s;
          Atomic.incr t.expired;
          incr removed
        end)
      b.slots;
    match b.overflow with Some b -> sweep_bucket chain b | None -> ()
  in
  Array.iter
    (fun p ->
      Spinlock.with_lock p.lock (fun () ->
          Array.iter (fun c -> sweep_bucket c c.head) p.chains))
    t.partitions;
  !removed

(* The live keys of every chain, each chain read under its epoch as a GET
   reads it.  Takes no partition lock: the index build calls this while
   holding the index lock, and writers take the partition lock first. *)
let live_keys t =
  let rec bucket_keys b acc =
    let acc =
      Array.fold_left (fun acc s -> if s.tag <> 0 then s.key :: acc else acc) acc b.slots
    in
    match b.overflow with Some b -> bucket_keys b acc | None -> acc
  in
  Array.fold_left
    (fun acc p ->
      Array.fold_left
        (fun acc c ->
          List.rev_append (optimistic_read c (fun () -> bucket_keys c.head [])) acc)
        acc p.chains)
    [] t.partitions

let ensure_ordered t = Ordered.build t.ordered (fun () -> live_keys t)

let scan ?(now = neg_infinity) t ~start ~count f =
  if not (Ordered.built t.ordered) then
    invalid_arg "Store.scan: ensure_ordered has not been called";
  let visited = ref 0 in
  Ordered.iter_from t.ordered ~start (fun key ->
      if !visited >= count then false
      else begin
        (match size_of ~now t key with
        | Some len ->
            f key len;
            incr visited
        | None -> () (* deleted or lapsed since the snapshot *));
        !visited < count
      end);
  !visited

type stats = {
  items : int;
  value_bytes : int;
  arena_bytes : int;
  overflow_buckets : int;
  partitions : int;
  expired : int;
}

let stats (t : t) =
  {
    items = Atomic.get t.items;
    value_bytes = Slab.used_bytes t.slab;
    arena_bytes = Slab.arena_bytes t.slab;
    overflow_buckets = Atomic.get t.overflow_count;
    partitions = partition_count t;
    expired = Atomic.get t.expired;
  }

let iter (t : t) f =
  let rec iter_bucket b =
    Array.iter
      (fun s ->
        if s.tag <> 0 then
          match s.region with Some r -> f s.key r.Slab.len | None -> ())
      b.slots;
    match b.overflow with Some b -> iter_bucket b | None -> ()
  in
  Array.iter
    (fun p -> Array.iter (fun c -> iter_bucket c.head) p.chains)
    t.partitions
