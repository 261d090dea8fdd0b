module SSet = Set.Make (String)

type t = { snapshot : SSet.t Atomic.t; lock : Spinlock.t; built : bool Atomic.t }

let create () =
  { snapshot = Atomic.make SSet.empty; lock = Spinlock.create (); built = Atomic.make false }

let built t = Atomic.get t.built

let build t keys =
  Spinlock.with_lock t.lock (fun () ->
      if not (Atomic.get t.built) then begin
        (* Set before [keys] reads the store: a writer that then finds the
           index off finished its write before the read began. *)
        Atomic.set t.built true;
        Atomic.set t.snapshot (SSet.of_list (keys ()))
      end)

let add t key =
  if Atomic.get t.built then
    Spinlock.with_lock t.lock (fun () ->
        Atomic.set t.snapshot (SSet.add key (Atomic.get t.snapshot)))

let remove t key =
  if Atomic.get t.built then
    Spinlock.with_lock t.lock (fun () ->
        Atomic.set t.snapshot (SSet.remove key (Atomic.get t.snapshot)))

let cardinal t = SSet.cardinal (Atomic.get t.snapshot)

let mem t key = SSet.mem key (Atomic.get t.snapshot)

let iter_from t ~start f =
  (* Readers walk an immutable snapshot: concurrent writers publish a new
     set, so a scan never observes a half-applied mutation (it may miss
     keys inserted after the scan started, which is the documented
     non-linearizable contract). *)
  let rec walk seq =
    match seq () with
    | Seq.Nil -> ()
    | Seq.Cons (key, rest) -> if f key then walk rest
  in
  walk (SSet.to_seq_from start (Atomic.get t.snapshot))
