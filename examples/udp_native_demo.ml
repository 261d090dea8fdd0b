(* The full native stack end-to-end over kernel UDP on loopback:

     client --UDP--> per-core sockets (RX queues) --> size-aware worker
            domains, each receiving from its own socket --> real KV store
            --> the serving worker replies --UDP--> client

   A large request crosses a lock-free ring to a large core, which serves
   it and replies from the socket it arrived on.  Wire-protocol encoding,
   UDP-level fragmentation for big values (the 300 KB item spans ~200
   datagrams each way), client-side retransmission and server-side
   request-id deduplication.

   Run with: dune exec examples/udp_native_demo.exe
   It exits 1 when a GET returns a wrong size or a deleted key.
*)

let () =
  let store =
    Kvstore.Store.create ~partition_bits:4 ~bucket_bits:10
      ~value_arena_bytes:(64 * 1024 * 1024) ()
  in
  let udp = Runtime.Udp.start ~base_port:47911 store in
  let client =
    Runtime.Udp.Client.connect ~base_port:47911 ~queues:(Runtime.Udp.queues udp) ()
  in

  (* A spread of item sizes across the tiny/small/large classes. *)
  let items =
    [ ("config:flag", 1); ("user:42", 120); ("session:9", 1_390);
      ("thumb:7", 24_000); ("asset:3", 150_000); ("video:5", 300_000) ]
  in
  List.iter
    (fun (key, size) ->
      Runtime.Udp.Client.put client key (Bytes.init size (fun i -> Char.chr (i mod 256))))
    items;
  let wrong = ref 0 in
  List.iter
    (fun (key, size) ->
      match Runtime.Udp.Client.get client key with
      | Some v when Bytes.length v = size -> Printf.printf "GET %-12s -> %6d B ok\n" key size
      | Some v ->
          incr wrong;
          Printf.printf "GET %-12s -> WRONG SIZE %d\n" key (Bytes.length v)
      | None ->
          incr wrong;
          Printf.printf "GET %-12s -> MISSING\n" key)
    items;
  ignore (Runtime.Udp.Client.delete client "config:flag");
  Printf.printf "after DELETE: config:flag -> %s\n"
    (match Runtime.Udp.Client.get client "config:flag" with
    | None -> "Not_found (correct)"
    | Some _ ->
        incr wrong;
        "still there?!");

  (* A quick closed-loop burst to exercise the scheduler. *)
  let t0 = Unix.gettimeofday () in
  let n = 3000 in
  for i = 1 to n do
    ignore (Runtime.Udp.Client.get client (fst (List.nth items (1 + (i mod 4)))))
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%d GETs in %.2fs (%.0f rps, mixed sizes incl. 150KB)\n" n dt
    (float_of_int n /. dt);

  let stats = Runtime.Server.stats (Runtime.Udp.server udp) in
  Printf.printf
    "server: %d served, %d handoffs, threshold %.0f B, %d small / %d large cores\n"
    (Array.fold_left ( + ) 0 stats.Runtime.Server.served)
    stats.Runtime.Server.handoffs stats.Runtime.Server.threshold
    stats.Runtime.Server.n_small stats.Runtime.Server.n_large;
  Runtime.Udp.Client.close client;
  Runtime.Udp.stop udp;
  if !wrong > 0 then exit 1
