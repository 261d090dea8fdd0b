let populate store dataset =
  for id = 0 to Workload.Dataset.n_keys dataset - 1 do
    Kvstore.Store.put store ~guard:`Lock
      (Workload.Dataset.key_name id)
      (Bytes.create (Workload.Dataset.size_of_key dataset id))
  done

type result = {
  completed : int;
  not_found : int;
  latencies : Stats.Float_vec.t;
  rejected_submits : int;
}

type stall = { unanswered : int64 list; partial : result; ledger : Obs.Ledger.t }

let stall_message s =
  Format.asprintf "%d request(s) unanswered (first ids: %s) after %d completed; server ledger: %a"
    (List.length s.unanswered)
    (String.concat ", " (List.filteri (fun i _ -> i < 8) s.unanswered |> List.map Int64.to_string))
    s.partial.completed Obs.Ledger.pp s.ledger

exception Gave_up

(* A client that has waited this long without a reply or an accepted
   submission gives up: far beyond any healthy server's pause, short
   enough that a lost reply fails a test instead of hanging it. *)
let stall_timeout_s = 10.0

(* Requests a client keeps outstanding. *)
let concurrency = 64

(* Entries a SCAN draw reads. *)
let scan_len = 16

(* The common client loop.  [make_id] namespaces request ids (concurrent
   clients must not collide) and [poll] supplies this client's replies.
   [scan_ratio] mixes in ordered range reads (default off, preserving the
   original mix). *)
let client_loop ?(scan_ratio = 0.0) ~server ~dataset ~requests ~seed ~make_id ~poll () =
  if requests < 0 then invalid_arg "Loadgen.run: negative request count";
  let gen = Workload.Generator.create ~seed ~scan_ratio ~scan_len dataset in
  let outstanding : (int64, Message.request) Hashtbl.t = Hashtbl.create concurrency in
  let latencies = Stats.Float_vec.create ~capacity:requests () in
  let completed = ref 0 and not_found = ref 0 and rejected = ref 0 in
  let next_id = ref 0L in
  let last_progress = ref (Unix.gettimeofday ()) in
  let waited = ref 0 in
  (* Checked every 1024 empty polls, so waiting costs no clock read per
     spin. *)
  let wait () =
    incr waited;
    if !waited land 1023 = 0 && Unix.gettimeofday () -. !last_progress > stall_timeout_s
    then
      raise Gave_up;
    Domain.cpu_relax ()
  in
  let make_request () =
    let g = Workload.Generator.next gen in
    next_id := Int64.add !next_id 1L;
    {
      Message.id = make_id !next_id;
      op =
        (match g.Workload.Generator.op with
        | Workload.Generator.Get -> Message.Get
        | Workload.Generator.Scan -> Message.Scan g.Workload.Generator.scan_len
        | Workload.Generator.Put -> Message.Put (Bytes.create g.Workload.Generator.item_size));
      key = Workload.Dataset.key_name g.Workload.Generator.key_id;
      submitted_at = Unix.gettimeofday ();
      obs_slot = -1;
    }
  in
  (* One poll of this client's replies: [true] when one arrived. *)
  let collect () =
    match poll () with
    | None -> false
    | Some reply -> (
        match Hashtbl.find_opt outstanding reply.Message.request_id with
        | Some req ->
            Hashtbl.remove outstanding reply.Message.request_id;
            Stats.Float_vec.push latencies (Message.latency_us req reply);
            incr completed;
            if reply.Message.status = Message.Not_found then incr not_found;
            last_progress := Unix.gettimeofday ();
            true
        | None ->
            (* A reply for a request we did not issue would be a bug. *)
            invalid_arg "Loadgen: unmatched reply id")
  in
  let issued = ref 0 and refused = ref None in
  let result () =
    { completed = !completed; not_found = !not_found; latencies; rejected_submits = !rejected }
  in
  match
    while !issued < requests || Hashtbl.length outstanding > 0 do
      if !issued < requests && Hashtbl.length outstanding < concurrency then begin
        let req = match !refused with Some r -> r | None -> make_request () in
        if Server.submit server req then begin
          refused := None;
          Hashtbl.replace outstanding req.Message.id req;
          incr issued;
          last_progress := Unix.gettimeofday ()
        end
        else begin
          (* Ring full: drain a reply (making progress) and retry. *)
          refused := Some req;
          incr rejected;
          if not (collect ()) then wait ()
        end
      end
      else if not (collect ()) then wait ()
    done
  with
  | () -> Ok (result ())
  | exception Gave_up ->
      Error
        {
          unanswered = List.sort Int64.compare (List.of_seq (Hashtbl.to_seq_keys outstanding));
          partial = result ();
          ledger = (Server.stats server).Server.ledger;
        }

let run ?scan_ratio ~server ~dataset ~requests ~seed () =
  client_loop ?scan_ratio ~server ~dataset ~requests ~seed
    ~make_id:Fun.id
    ~poll:(fun () -> Server.poll_reply server)
    ()

(* Multi-client mode: ids carry the 1-based client index in bits 48+.
   Each client drains the shared reply stream itself and forwards other
   clients' replies to their mailboxes.  A mailbox never holds more than
   its client's outstanding window, so it is sized to that window and a
   forward that finds it full is a bug, not backpressure. *)
let client_of_id id = Int64.to_int (Int64.shift_right_logical id 48) - 1

let tag_id ~client id = Int64.logor (Int64.shift_left (Int64.of_int (client + 1)) 48) id

let run_concurrent ?(clients = 3) ~server ~dataset ~requests_per_client ~seed () =
  if clients < 1 then invalid_arg "Loadgen.run_concurrent: need at least one client";
  let capacity =
    let rec pow2 c = if c >= concurrency then c else pow2 (2 * c) in
    pow2 2
  in
  let mailboxes =
    Array.init clients (fun _ -> (Netsim.Ring.create ~capacity : Message.reply Netsim.Ring.t))
  in
  let poll c () =
    match Netsim.Ring.try_pop mailboxes.(c) with
    | Some _ as r -> r
    | None -> (
        match Server.poll_reply server with
        | Some reply when client_of_id reply.Message.request_id <> c ->
            let owner = client_of_id reply.Message.request_id in
            if owner < 0 || owner >= clients then
              invalid_arg "Loadgen.run_concurrent: reply for unknown client";
            if not (Netsim.Ring.try_push mailboxes.(owner) reply) then
              invalid_arg "Loadgen.run_concurrent: mailbox overflow";
            None
        | r -> r)
  in
  let outcomes =
    List.init clients (fun c ->
        Domain.spawn (fun () ->
            client_loop ~server ~dataset ~requests:requests_per_client
              ~seed:(seed + (101 * c))
              ~make_id:(tag_id ~client:c) ~poll:(poll c) ()))
    |> List.map Domain.join
  in
  let results = List.map (function Ok r -> r | Error s -> s.partial) outcomes in
  let latencies = Stats.Float_vec.create () in
  List.iter (fun r -> Stats.Float_vec.append latencies r.latencies) results;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let merged =
    {
      completed = sum (fun r -> r.completed);
      not_found = sum (fun r -> r.not_found);
      latencies;
      rejected_submits = sum (fun r -> r.rejected_submits);
    }
  in
  match List.filter_map (function Ok _ -> None | Error s -> Some s) outcomes with
  | [] -> Ok merged
  | stalls ->
      Error
        {
          unanswered = List.concat_map (fun s -> s.unanswered) stalls;
          partial = merged;
          ledger = (Server.stats server).Server.ledger;
        }
