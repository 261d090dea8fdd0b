(** Load generation against the native {!Server}.

    A windowed closed-loop client: keep up to [concurrency] requests
    outstanding, match replies to requests by id, and record end-to-end
    latencies.  Runs in the calling domain. *)

val populate : Kvstore.Store.t -> Workload.Dataset.t -> unit
(** Insert every dataset key with a real value of its assigned size.
    Use dataset specs with a modest [s_large_max] (e.g. 64 KB) and key
    count so the value arena fits in memory. *)

type result = {
  completed : int;
  not_found : int;          (** replies with status Not_found (should be 0
                                after {!populate}) *)
  latencies : Stats.Float_vec.t; (** µs, one per completed request *)
  rejected_submits : int;   (** RX-ring-full backpressure events *)
}

type stall = {
  unanswered : int64 list;  (** ids still outstanding when the client gave up *)
  partial : result;         (** the replies that did arrive *)
  ledger : Obs.Ledger.t;
      (** the server's ledger at that moment: the unanswered requests are
          in its [in_flight] or [worker_failed] leg *)
}
(** A run that stopped waiting: a reply was lost or a worker died. *)

val stall_message : stall -> string
(** One line naming the unanswered ids (the first few) and the ledger. *)

val run :
  ?concurrency:int ->
  ?ttl_s:float ->
  ?scan_ratio:float ->
  ?scan_len:int ->
  server:Server.t ->
  dataset:Workload.Dataset.t ->
  requests:int ->
  seed:int ->
  unit ->
  (result, stall) Stdlib.result
(** [run ~server ~dataset ~requests ~seed ()] issues [requests] operations
    drawn from the dataset's spec (GET:PUT mix, zipf popularity, size
    classes) and waits for all replies.  [concurrency] defaults to 64.
    [ttl_s] attaches a TTL to every PUT; [scan_ratio] diverts that
    fraction of draws to SCANs of [scan_len] entries (default 16).
    [Error] when the client waited 10 s without a reply or an accepted
    submission. *)

val run_concurrent :
  ?clients:int ->
  ?concurrency:int ->
  server:Server.t ->
  dataset:Workload.Dataset.t ->
  requests_per_client:int ->
  seed:int ->
  unit ->
  (result, stall) Stdlib.result
(** Multiple client domains driving the server at once — the in-process
    analogue of the paper's 7 client machines.  Request ids carry the
    client index in their top bits; each client drains the shared reply
    stream and forwards other clients' replies to their mailboxes, each
    sized to one client's [concurrency] window.  Results are
    aggregated across clients; [Error] when any client gave up, with
    every client's unanswered ids.  [clients] defaults to 3. *)
