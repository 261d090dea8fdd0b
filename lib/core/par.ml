(* A small reusable domain pool.

   Workers are spawned lazily (at most [jobs () - 1], growing if a larger
   degree is requested later) and live for the rest of the process; an
   [at_exit] hook quits and joins them so the main domain never exits with
   domains still running.  Each [map] call claims indices from a shared
   atomic counter, so results land at their input index regardless of which
   domain computes them — execution order varies, results do not. *)

let main_domain = Domain.self ()

let env_jobs =
  match Sys.getenv_opt "MINOS_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v -> Some (max 1 v)
      | None -> None)
  | None -> None

let override : int option Atomic.t = Atomic.make None

let set_jobs o = Atomic.set override (Option.map (max 1) o)

let jobs () =
  match Atomic.get override with
  | Some n -> n
  | None -> (
      match env_jobs with
      | Some n -> n
      | None -> Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* The pool *)

let pool_mutex = Mutex.create ()
let pool_cond = Condition.create ()
let task_queue : (unit -> unit) Queue.t = Queue.create ()
let quitting = ref false
let workers : unit Domain.t list ref = ref []
let worker_count = ref 0

let rec worker_loop () =
  Mutex.lock pool_mutex;
  while Queue.is_empty task_queue && not !quitting do
    Condition.wait pool_cond pool_mutex
  done;
  if Queue.is_empty task_queue then Mutex.unlock pool_mutex
  else begin
    let task = Queue.pop task_queue in
    Mutex.unlock pool_mutex;
    task ();
    worker_loop ()
  end

let shutdown () =
  Mutex.lock pool_mutex;
  quitting := true;
  Condition.broadcast pool_cond;
  let ws = !workers in
  workers := [];
  worker_count := 0;
  Mutex.unlock pool_mutex;
  List.iter Domain.join ws

let at_exit_registered = ref false

(* Called with [pool_mutex] held. *)
let ensure_workers_locked target =
  if not !at_exit_registered then begin
    at_exit_registered := true;
    Stdlib.at_exit shutdown
  end;
  while !worker_count < target do
    workers := Domain.spawn worker_loop :: !workers;
    incr worker_count
  done

let submit target task =
  Mutex.lock pool_mutex;
  ensure_workers_locked target;
  for _ = 1 to target do
    Queue.push task task_queue
  done;
  Condition.broadcast pool_cond;
  Mutex.unlock pool_mutex

(* ------------------------------------------------------------------ *)
(* map *)

let sequential f arr = Array.map f arr

let parallel_map f arr ~degree =
  let n = Array.length arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let remaining = Atomic.make n in
  let error = Atomic.make None in
  let done_mutex = Mutex.create () in
  let done_cond = Condition.create () in
  let work () =
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then continue := false
      else begin
        (try results.(i) <- Some (f arr.(i))
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set error None (Some (e, bt))));
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock done_mutex;
          Condition.broadcast done_cond;
          Mutex.unlock done_mutex
        end
      end
    done
  in
  let helpers = min (degree - 1) (n - 1) in
  submit helpers work;
  work ();
  Mutex.lock done_mutex;
  while Atomic.get remaining > 0 do
    Condition.wait done_cond done_mutex
  done;
  Mutex.unlock done_mutex;
  (match Atomic.get error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.map (function Some v -> v | None -> assert false) results

let map f arr =
  let n = Array.length arr in
  let degree = jobs () in
  (* Nested calls (from a worker) and trivial inputs run sequentially in
     the calling domain: same results, no pool interaction, no deadlock. *)
  if n <= 1 || degree <= 1 || Domain.self () <> main_domain then sequential f arr
  else parallel_map f arr ~degree

let map_list f l = Array.to_list (map f (Array.of_list l))

let run tasks = ignore (map (fun task -> task ()) tasks)
