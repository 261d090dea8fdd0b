(* Vyukov bounded MPMC ring, twice: once as a functor over the atomics
   implementation (model-checked by lib/check on traced atomics) and once
   hand-specialized on Stdlib.Atomic for production, because the build has
   no flambda and a functor application would turn every atomic primitive
   into an indirect call on this hot path.  The two bodies must stay
   textually identical up to the [A.]/[Atomic.] prefix — except that the
   functor holds each slot in an [A.cell] (a bare mutable field in
   production, a traced location under the model checker, so slot accesses
   interleave and publication ordering is checkable) — and the qcheck
   equivalence property in test/test_netsim.ml enforces agreement. *)

exception Empty

module type S = sig
  type 'a t

  val create : capacity:int -> 'a t
  val try_push : 'a t -> 'a -> bool
  val try_pop : 'a t -> 'a option
  val pop_exn : 'a t -> 'a
  val length : 'a t -> int
  val is_empty : 'a t -> bool
end

(* Unique block marking an empty slot.  Slots hold [Obj.repr] of the user
   value between push and pop, so pushing allocates nothing (the former
   ['a option] box is gone) and physical equality with [sentinel] cannot
   collide with any user value. *)
let sentinel : Obj.t = Obj.repr (ref 0)

let bad_capacity = "Ring.create: capacity must be a power of two >= 2"

module Make (A : Atomic_ops.S) = struct
  type cell = { seq : int A.t; value : Obj.t A.cell }

  type 'a t = {
    buffer : cell array;
    mask : int;
    head : int A.t; (* next position to pop *)
    tail : int A.t; (* next position to push *)
  }

  let create ~capacity =
    if capacity < 2 || capacity land (capacity - 1) <> 0 then
      invalid_arg bad_capacity;
    {
      buffer =
        Array.init capacity (fun i -> { seq = A.make i; value = A.cell sentinel });
      mask = capacity - 1;
      head = A.make 0;
      tail = A.make 0;
    }


  (* Top-level self-recursion for the CAS retry, not a local [attempt]
     closure: a closure would capture [t]/[v] and allocate per call,
     defeating the allocation-free contract. *)
  let rec try_push t v =
    let pos = A.get t.tail in
    let cell = t.buffer.(pos land t.mask) in
    let seq = A.get cell.seq in
    let diff = seq - pos in
    if diff = 0 then
      if A.compare_and_set t.tail pos (pos + 1) then begin
        A.write cell.value (Obj.repr v);
        A.set cell.seq (pos + 1);
        true
      end
      else try_push t v
    else if diff < 0 then false (* full *)
    else try_push t v (* another producer grabbed this slot; retry *)

  let rec pop_exn : type a. a t -> a =
   fun t ->
    let pos = A.get t.head in
    let cell = t.buffer.(pos land t.mask) in
    let seq = A.get cell.seq in
    let diff = seq - (pos + 1) in
    if diff = 0 then
      if A.compare_and_set t.head pos (pos + 1) then begin
        let v = A.read cell.value in
        A.write cell.value sentinel;
        A.set cell.seq (pos + t.mask + 1);
        (* A sentinel here means a producer published the slot sequence
           before writing the value: exactly the ordering bug the model
           checker hunts.  Free (one physical compare) outside -noassert
           builds. *)
        assert (v != sentinel);
        (Obj.obj v : a)
      end
      else pop_exn t
    else if diff < 0 then raise Empty (* empty *)
    else pop_exn t

  let try_pop t = match pop_exn t with v -> Some v | exception Empty -> None

  let length t =
    let tail = A.get t.tail in
    let head = A.get t.head in
    let len = tail - head in
    if len < 0 then 0 else if len > t.mask + 1 then t.mask + 1 else len

  let is_empty t = length t = 0
end

(* ------------------------------------------------------------------ *)
(* Specialized default instantiation: [Make] with [A := Stdlib.Atomic],
   expanded by hand so atomic accesses compile to primitives. *)

type cell = { seq : int Atomic.t; mutable value : Obj.t }

type 'a t = {
  buffer : cell array;
  mask : int;
  head : int Atomic.t; (* next position to pop *)
  tail : int Atomic.t; (* next position to push *)
}

let create ~capacity =
  if capacity < 2 || capacity land (capacity - 1) <> 0 then
    invalid_arg bad_capacity;
  {
    buffer = Array.init capacity (fun i -> { seq = Atomic.make i; value = sentinel });
    mask = capacity - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }


(* Top-level self-recursion for the CAS retry, not a local [attempt]
   closure: a closure would capture [t]/[v] and allocate per call,
   defeating the allocation-free contract. *)
let rec try_push t v =
  let pos = Atomic.get t.tail in
  let cell = t.buffer.(pos land t.mask) in
  let seq = Atomic.get cell.seq in
  let diff = seq - pos in
  if diff = 0 then
    if Atomic.compare_and_set t.tail pos (pos + 1) then begin
      cell.value <- Obj.repr v;
      Atomic.set cell.seq (pos + 1);
      true
    end
    else try_push t v
  else if diff < 0 then false (* full *)
  else try_push t v (* another producer grabbed this slot; retry *)

let rec pop_exn : type a. a t -> a =
 fun t ->
  let pos = Atomic.get t.head in
  let cell = t.buffer.(pos land t.mask) in
  let seq = Atomic.get cell.seq in
  let diff = seq - (pos + 1) in
  if diff = 0 then
    if Atomic.compare_and_set t.head pos (pos + 1) then begin
      let v = cell.value in
      cell.value <- sentinel;
      Atomic.set cell.seq (pos + t.mask + 1);
      assert (v != sentinel);
      (Obj.obj v : a)
    end
    else pop_exn t
  else if diff < 0 then raise Empty (* empty *)
  else pop_exn t

let try_pop t = match pop_exn t with v -> Some v | exception Empty -> None

let length t =
  let tail = Atomic.get t.tail in
  let head = Atomic.get t.head in
  let len = tail - head in
  if len < 0 then 0 else if len > t.mask + 1 then t.mask + 1 else len

let is_empty t = length t = 0
