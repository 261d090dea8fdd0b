(* Concurrent use of the KV substrate with real OCaml domains.

   Demonstrates the paper's §4.2 concurrency scheme working for real:
   - writers share the key space and take the partition spinlock;
   - readers use the optimistic bucket-epoch protocol and never observe a
     torn value;
   - a lock-free ring hands off work between domains, like the DPDK rings
     that carry large requests from small to large cores.

   Run with: dune exec examples/kv_concurrent.exe
*)

let n_keys = 64
let updates_per_writer = 20_000

let key i = Printf.sprintf "item-%03d" i

(* Values encode (key index, version) so readers can validate them. *)
let value i version = Bytes.of_string (Printf.sprintf "%d:%d" i version)

let parse_value b =
  let s = Bytes.to_string b in
  match String.index_opt s ':' with
  | Some colon ->
      Some
        ( int_of_string (String.sub s 0 colon),
          int_of_string (String.sub s (colon + 1) (String.length s - colon - 1)) )
  | None -> None

let () =
  let store =
    Kvstore.Store.create ~partition_bits:3 ~bucket_bits:6
      ~value_arena_bytes:(8 * 1024 * 1024) ()
  in
  for i = 0 to n_keys - 1 do
    Kvstore.Store.put store ~guard:`Lock (key i) (value i 0)
  done;

  (* A lock-free ring carries "handoff" messages between the writer and a
     consumer domain, as the small->large core dispatch does in Minos. *)
  let ring : int Netsim.Ring.t = Netsim.Ring.create ~capacity:256 in
  let handoffs_done = Atomic.make 0 in
  let stop = Atomic.make false in
  let torn_reads = Atomic.make 0 in

  let writer id =
    Domain.spawn (fun () ->
        let rng = Dsim.Rng.create (1000 + id) in
        for version = 1 to updates_per_writer do
          let i = Dsim.Rng.int rng n_keys in
          (* Writers share the key space, so all writes take the lock. *)
          Kvstore.Store.put store ~guard:`Lock (key i) (value i version);
          if version mod 64 = 0 then
            (* Hand a marker to the consumer, spinning while full. *)
            while not (Netsim.Ring.try_push ring i) do
              Domain.cpu_relax ()
            done
        done)
  in
  let reader =
    Domain.spawn (fun () ->
        let rng = Dsim.Rng.create 7 in
        let reads = ref 0 in
        while not (Atomic.get stop) do
          let i = Dsim.Rng.int rng n_keys in
          (match Kvstore.Store.get store (key i) with
          | Some v -> (
              incr reads;
              match parse_value v with
              | Some (j, _) when j = i -> ()
              | Some _ | None -> Atomic.incr torn_reads)
          | None -> Atomic.incr torn_reads)
        done;
        !reads)
  in
  let consumer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) || not (Netsim.Ring.is_empty ring) do
          match Netsim.Ring.try_pop ring with
          | Some _ -> Atomic.incr handoffs_done
          | None -> Domain.cpu_relax ()
        done)
  in
  let w1 = writer 1 and w2 = writer 2 in
  Domain.join w1;
  Domain.join w2;
  Atomic.set stop true;
  let reads = Domain.join reader in
  Domain.join consumer;

  Printf.printf "writers: %d updates across %d keys (2 domains)\n"
    (2 * updates_per_writer) n_keys;
  Printf.printf "reader:  %d optimistic reads, %d inconsistent (must be 0)\n" reads
    (Atomic.get torn_reads);
  Printf.printf "ring:    %d handoffs delivered\n" (Atomic.get handoffs_done);
  let stats = Kvstore.Store.stats store in
  Printf.printf "store:   %d items, %d overflow buckets, %d value bytes\n"
    stats.Kvstore.Store.items stats.Kvstore.Store.overflow_buckets
    stats.Kvstore.Store.value_bytes;
  if Atomic.get torn_reads > 0 then exit 1
