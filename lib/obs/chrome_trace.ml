(* Chrome trace-event JSON exporter; see chrome_trace.mli.

   Offline export path: runs once after a simulation/serve finishes, so
   the Printf use here is reviewed in analyze_allow.txt (the record path in
   Recorder/Timeline/Decision_log stays allocation- and Printf-free).
   Strings and numbers go through [Json.string] / [Json.float] (fixed
   precision, [null] for a non-finite threshold), so traces are
   byte-identical across runs of the same seed. *)

(* Track (tid) layout: cores at their id, TX queues offset, one synthetic
   track for the control loop.  Tids are per-pid, so every server section
   of a cluster trace reuses the same layout under its own pid. *)
let tx_tid q = 1000 + q
let reshard_tid = 9998
let control_tid = 9999

type emitter = { buf : Buffer.t; mutable first : bool }

let event e fmt =
  Printf.ksprintf
    (fun body ->
      if e.first then e.first <- false else Buffer.add_string e.buf ",\n";
      Buffer.add_string e.buf "  {";
      Buffer.add_string e.buf body;
      Buffer.add_char e.buf '}')
    fmt

let thread_name e ~pid ~tid name =
  event e
    {|"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}|}
    pid tid (Json.string name)

let kind_label k = Json.string (Decision_log.kind_name k)

let span_events e ~pid r slot =
  let ts f = Recorder.get_ts r slot f in
  let meta f = Recorder.get_meta r slot f in
  let seq = meta Span.meta_seq in
  let core = meta Span.meta_core in
  let txq = meta Span.meta_tx_queue in
  let rx_queue = meta Span.meta_rx_queue in
  let cls =
    if meta Span.meta_class = Span.class_large then "large" else "small"
  in
  let op =
    let m = meta Span.meta_op in
    if m = Span.op_put then "put" else if m = Span.op_scan then "scan" else "get"
  in
  let t0 = ts Span.ts_rx_enq in
  let t_start = ts Span.ts_service_start in
  let t_stop = ts Span.ts_service_end in
  let t_tx = ts Span.ts_tx_done in
  let t_end = ts Span.ts_end in
  (* Async request span: RX enqueue to end-to-end completion. *)
  event e
    {|"ph":"b","cat":"request","id":%d,"name":"%s","pid":%d,"tid":%d,"ts":%s|}
    seq cls pid rx_queue (Json.float t0);
  List.iter
    (fun f ->
      let v = ts f in
      if not (Float.is_nan v) then
        event e
          {|"ph":"n","cat":"request","id":%d,"name":"%s","pid":%d,"tid":%d,"ts":%s,"args":{"step":"%s"}|}
          seq cls pid rx_queue (Json.float v) (Span.ts_name f))
    [ Span.ts_poll; Span.ts_classify; Span.ts_handoff_enq; Span.ts_handoff_deq ];
  event e
    {|"ph":"e","cat":"request","id":%d,"name":"%s","pid":%d,"tid":%d,"ts":%s,"args":{"e2e_us":%s,"bytes":%d,"op":"%s"}|}
    seq cls pid rx_queue (Json.float t_end)
    (Json.float (t_end -. t0))
    (meta Span.meta_size) op;
  (* Service occupies the serving core; cores run one request at a time,
     so these B/E pairs are disjoint per track. *)
  event e {|"ph":"B","name":"service","pid":%d,"tid":%d,"ts":%s,"args":{"id":%d}|}
    pid core (Json.float t_start) seq;
  event e {|"ph":"E","name":"service","pid":%d,"tid":%d,"ts":%s|} pid core
    (Json.float t_stop);
  (* Reply transmission: messages on one TX queue can overlap (frames are
     round-robined), so use complete events, which need not nest. *)
  if t_tx >= t_stop then
    event e
      {|"ph":"X","name":"tx","pid":%d,"tid":%d,"ts":%s,"dur":%s,"args":{"id":%d}|}
      pid
      (tx_tid (if txq >= 0 then txq else core))
      (Json.float t_stop)
      (Json.float (t_tx -. t_stop))
      seq

let counter_args tl value =
  String.concat ","
    (List.init (Timeline.cores tl) (fun c -> Printf.sprintf {|"core%d":%s|} c (value c)))

(* One server's worth of events, all under process id [pid]. *)
let section e ~pid ~name ?timeline ?decisions recorder =
  event e
    {|"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}|}
    pid (Json.string name);
  (* Name the per-core and per-TX-queue tracks we will reference. *)
  let max_core = ref (-1) and max_tx = ref (-1) in
  (match timeline with
  | Some tl -> max_core := Timeline.cores tl - 1
  | None -> ());
  let n = Recorder.recorded recorder in
  for slot = 0 to n - 1 do
    if Recorder.complete recorder slot then begin
      let m f = Recorder.get_meta recorder slot f in
      if m Span.meta_core > !max_core then max_core := m Span.meta_core;
      if m Span.meta_rx_queue > !max_core then max_core := m Span.meta_rx_queue;
      let txq = m Span.meta_tx_queue in
      let txq = if txq >= 0 then txq else m Span.meta_core in
      if txq > !max_tx then max_tx := txq
    end
  done;
  for c = 0 to !max_core do
    thread_name e ~pid ~tid:c (Printf.sprintf "core %d" c)
  done;
  for q = 0 to !max_tx do
    thread_name e ~pid ~tid:(tx_tid q) (Printf.sprintf "tx %d" q)
  done;
  if decisions <> None then thread_name e ~pid ~tid:control_tid "control";
  (match decisions with
  | Some d ->
      let has_reshard = ref false in
      for i = 0 to Decision_log.length d - 1 do
        if Decision_log.kind d i <> Decision_log.kind_control then
          has_reshard := true
      done;
      if !has_reshard then thread_name e ~pid ~tid:reshard_tid "reshard"
  | None -> ());
  for slot = 0 to n - 1 do
    if Recorder.complete recorder slot then span_events e ~pid recorder slot
  done;
  (match timeline with
  | None -> ()
  | Some tl ->
      for s = 0 to Timeline.samples tl - 1 do
        event e {|"ph":"C","name":"rx_depth","pid":%d,"tid":0,"ts":%s,"args":{%s}|}
          pid
          (Json.float (Timeline.time tl s))
          (counter_args tl (fun c -> string_of_int (Timeline.depth tl s c)));
        event e
          {|"ph":"C","name":"utilization","pid":%d,"tid":0,"ts":%s,"args":{%s}|}
          pid
          (Json.float (Timeline.time tl s))
          (counter_args tl (fun c -> Printf.sprintf "%.4f" (Timeline.utilization tl s c)))
      done);
  match decisions with
  | None -> ()
  | Some d ->
      for i = 0 to Decision_log.length d - 1 do
        let k = Decision_log.kind d i in
        if k = Decision_log.kind_control then
          event e
            {|"ph":"C","name":"control","pid":%d,"tid":%d,"ts":%s,"args":{"threshold_B":%s,"n_small":%d,"n_large":%d,"lost":%d}|}
            pid control_tid
            (Json.float (Decision_log.time d i))
            (Json.float (Decision_log.threshold d i))
            (Decision_log.n_small d i) (Decision_log.n_large d i)
            (Decision_log.lost d i)
        else if k >= Decision_log.kind_server_kill then
          (* Tail-cutting events: crash/restart instants and hedge-delay
             re-estimates, on the reshard track. *)
          event e
            {|"ph":"i","s":"p","name":%s,"pid":%d,"tid":%d,"ts":%s,"args":{"server":%d,"delay_us":%s}|}
            (kind_label k) pid reshard_tid
            (Json.float (Decision_log.time d i))
            (Decision_log.server d i)
            (Json.float (Decision_log.threshold d i))
        else begin
          (* Reshard protocol state changes: dual-route windows as
             complete spans, everything else as instants, all on the
             dedicated reshard track. *)
          let until = Decision_log.until_us d i in
          if not (Float.is_nan until) then
            event e
              {|"ph":"X","name":%s,"pid":%d,"tid":%d,"ts":%s,"dur":%s,"args":{"server":%d,"shard":%d,"epoch":%d}|}
              (kind_label k) pid reshard_tid
              (Json.float (Decision_log.time d i))
              (Json.float (until -. Decision_log.time d i))
              (Decision_log.server d i) (Decision_log.shard d i)
              (Decision_log.epoch d i)
          else
            event e
              {|"ph":"i","s":"p","name":%s,"pid":%d,"tid":%d,"ts":%s,"args":{"server":%d,"shard":%d,"epoch":%d}|}
              (kind_label k) pid reshard_tid
              (Json.float (Decision_log.time d i))
              (Decision_log.server d i) (Decision_log.shard d i)
              (Decision_log.epoch d i)
        end
      done

let to_buffer ?(name = "minos") ?timeline ?decisions recorder buf =
  let e = { buf; first = true } in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  section e ~pid:(Recorder.server recorder) ~name ?timeline ?decisions recorder;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n"

let write_file path fill =
  let buf = Buffer.create 65536 in
  fill buf;
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)

let write ~path ?name ?timeline ?decisions recorder =
  write_file path (to_buffer ?name ?timeline ?decisions recorder)

let cluster_to_buffer sections buf =
  let e = { buf; first = true } in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iter
    (fun (name, (i : Instrument.t)) ->
      section e
        ~pid:(Recorder.server i.Instrument.recorder)
        ~name ?timeline:i.Instrument.timeline ~decisions:i.Instrument.decisions
        i.Instrument.recorder)
    sections;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n"

let write_cluster ~path sections = write_file path (cluster_to_buffer sections)
