module SSet = Set.Make (String)

(* Two flags, because a build runs between them: [maintained] is set
   first, under the lock, so that writers keep the index from then on;
   [published] is set last, once [snapshot] holds the whole key set.  A
   walk reads only a published snapshot. *)
type t = {
  snapshot : SSet.t Atomic.t;
  lock : Spinlock.t;
  maintained : bool Atomic.t;
  published : bool Atomic.t;
}

let create () =
  {
    snapshot = Atomic.make SSet.empty;
    lock = Spinlock.create ();
    maintained = Atomic.make false;
    published = Atomic.make false;
  }

(* The set of the sorted [keys.(lo) .. keys.(hi - 1)], built from its
   halves by [union].  Two trees over disjoint key ranges unite along one
   spine, so the build allocates little beyond the final tree.
   [SSet.of_list] merge-sorts a list instead, and the cells of its longer
   runs outlive the minor heap: at 100k keys that garbage was 8 MB of the
   native server's peak RSS. *)
let rec of_sorted keys lo hi =
  if hi - lo <= 4 then add_range keys lo hi SSet.empty
  else
    let mid = (lo + hi) / 2 in
    SSet.union (of_sorted keys lo mid) (of_sorted keys mid hi)

and add_range keys i hi s =
  if i >= hi then s else add_range keys (i + 1) hi (SSet.add keys.(i) s)

let build t keys =
  if not (Atomic.get t.published) then
    Spinlock.with_lock t.lock (fun () ->
        if not (Atomic.get t.published) then begin
          (* Set before [keys] reads the store: a writer that then finds
             the index off finished its write before the read began. *)
          Atomic.set t.maintained true;
          let keys = Array.of_list (keys ()) in
          Array.stable_sort String.compare keys;
          Atomic.set t.snapshot (of_sorted keys 0 (Array.length keys));
          Atomic.set t.published true
        end)

let add t key =
  if Atomic.get t.maintained then
    Spinlock.with_lock t.lock (fun () ->
        Atomic.set t.snapshot (SSet.add key (Atomic.get t.snapshot)))

let remove t key =
  if Atomic.get t.maintained then
    Spinlock.with_lock t.lock (fun () ->
        Atomic.set t.snapshot (SSet.remove key (Atomic.get t.snapshot)))

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
  if Atomic.get t.published then walk (SSet.to_seq_from start (Atomic.get t.snapshot))
