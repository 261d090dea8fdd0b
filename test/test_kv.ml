(* Tests for the MICA-style KV store: keyhash, slab allocator, spinlock,
   and the store with its optimistic reads and locked writes. *)

open Kvstore

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

(* ------------------------------------------------------------------ *)
(* Keyhash *)

let test_keyhash_deterministic () =
  check Alcotest.int64 "same key same hash" (Keyhash.hash "hello") (Keyhash.hash "hello");
  if Keyhash.hash "hello" = Keyhash.hash "hellp" then
    Alcotest.fail "close keys should differ"

let test_keyhash_field_ranges () =
  List.iter
    (fun key ->
      let h = Keyhash.hash key in
      let p = Keyhash.partition_of h ~bits:4 in
      if p < 0 || p >= 16 then Alcotest.failf "partition %d out of range" p;
      let b = Keyhash.bucket_of h ~bits:10 in
      if b < 0 || b >= 1024 then Alcotest.failf "bucket %d out of range" b;
      let t = Keyhash.tag_of h in
      if t < 1 || t > 0xFFFF then Alcotest.failf "tag %d out of range" t)
    [ ""; "a"; "key1"; "key2"; String.make 100 'x' ]

let test_keyhash_partition_spread () =
  (* 4 partition bits over 4096 sequential keys: every partition hit. *)
  let seen = Array.make 16 0 in
  for i = 0 to 4095 do
    let p = Keyhash.partition_of (Keyhash.hash (Printf.sprintf "key-%d" i)) ~bits:4 in
    seen.(p) <- seen.(p) + 1
  done;
  Array.iteri
    (fun i c -> if c = 0 then Alcotest.failf "partition %d never hit" i)
    seen

let test_keyhash_bits_validation () =
  let h = Keyhash.hash "x" in
  Alcotest.check_raises "negative bits" (Invalid_argument "Keyhash: bits out of [0, 30]")
    (fun () -> ignore (Keyhash.partition_of h ~bits:(-1)));
  Alcotest.check_raises "too many bits" (Invalid_argument "Keyhash: bits out of [0, 30]")
    (fun () -> ignore (Keyhash.bucket_of h ~bits:31));
  (* bits = 0 is the degenerate single-partition case. *)
  check int "0 bits -> partition 0" 0 (Keyhash.partition_of h ~bits:0)

let prop_tag_never_zero =
  QCheck.Test.make ~name:"tag never 0 (0 marks empty slots)" ~count:500
    QCheck.small_string
    (fun key -> Keyhash.tag_of (Keyhash.hash key) <> 0)

(* ------------------------------------------------------------------ *)
(* Slab *)

(* A block is the request rounded up to 8 B, 16 B at least. *)
let test_slab_exact_fit () =
  let s = Slab.create ~capacity:(1 lsl 20) in
  List.iter
    (fun (len, block) ->
      check int (Printf.sprintf "block for %d B" len) block (Slab.region_bytes s (Slab.alloc s len)))
    [ (0, 16); (16, 16); (17, 24); (24, 24); (250_000, 250_000); (250_001, 250_008) ];
  check int "insert-only: the tail is the sum of the blocks"
    (16 + 16 + 24 + 24 + 250_000 + 250_008)
    (Slab.arena_bytes s)

let test_slab_alloc_write_read () =
  let s = Slab.create ~capacity:4096 in
  let r = Slab.alloc s (Slab.header_bytes + 10) in
  Slab.write s r ~pos:Slab.header_bytes (Bytes.of_string "0123456789");
  let out = Bytes.sub_string (Slab.arena s) (r + Slab.header_bytes) 10 in
  check Alcotest.string "roundtrip" "0123456789" out;
  check bool "region holds header and data" true
    (Slab.region_bytes s r >= Slab.header_bytes + 10);
  check int "block is the request rounded to 8 B" 16 (Slab.region_bytes s r);
  check int "used" 16 (Slab.used_bytes s);
  check int "live" 1 (Slab.live_regions s)

let test_slab_free_and_reuse () =
  let s = Slab.create ~capacity:64 in
  let r1 = Slab.alloc s 30 in
  (* 32 B, and a guard after it so that freeing it does not lower the tail *)
  let guard = Slab.alloc s 16 in
  Slab.free s r1;
  check int "used after free" 16 (Slab.used_bytes s);
  check int "free listed" 32 (Slab.free_bytes s);
  let r2 = Slab.alloc s 10 in
  (* the free block is split: its first 16 B serve, 16 B stay free *)
  check int "recycled offset" r1 r2;
  check int "split" 16 (Slab.free_bytes s);
  let r3 = Slab.alloc s 16 in
  check int "the rest serves the next request" (r1 + 16) r3;
  check int "no new arena" 48 (Slab.arena_bytes s);
  Slab.free s r2;
  Slab.free s r3;
  check int "merged back" 32 (Slab.free_bytes s);
  Slab.free s guard;
  check int "all returned to the tail" 0 (Slab.arena_bytes s);
  check int "no free block left" 0 (Slab.free_bytes s);
  check int "the peak stays" 48 (Slab.peak_bytes s)

(* A freed block either sits on a free list, flagged free, or has gone
   back to the tail; freeing it again is caught both ways. *)
let test_slab_double_free () =
  let s = Slab.create ~capacity:64 in
  let r = Slab.alloc s 8 in
  let last = Slab.alloc s 8 in
  Slab.free s r;
  Alcotest.check_raises "double free" (Invalid_argument "Slab.free: double free")
    (fun () -> Slab.free s r);
  Slab.free s last;
  Alcotest.check_raises "double free past the tail" (Invalid_argument "Slab.free: not a region")
    (fun () -> Slab.free s last)

let test_slab_out_of_memory () =
  let s = Slab.create ~capacity:32 in
  ignore (Slab.alloc s 32);
  (match Slab.alloc s 1 with
  | _ -> Alcotest.fail "expected Out_of_memory"
  | exception Slab.Out_of_memory 1 -> ()
  | exception Slab.Out_of_memory n -> Alcotest.failf "wrong size in exn: %d" n)

let test_slab_write_overflow () =
  let s = Slab.create ~capacity:64 in
  let r = Slab.alloc s 8 in
  Alcotest.check_raises "write too big"
    (Invalid_argument "Slab.write: data exceeds region capacity") (fun () ->
      Slab.write s r ~pos:Slab.header_bytes (Bytes.create 17));
  Alcotest.check_raises "write over the slab's header"
    (Invalid_argument "Slab.write: data exceeds region capacity") (fun () ->
      Slab.write s r ~pos:0 (Bytes.create 1))

let prop_slab_many_alloc_free =
  QCheck.Test.make ~name:"slab conserves accounting through alloc/free churn"
    ~count:50
    QCheck.(list_of_size Gen.(1 -- 50) (int_range 1 500))
    (fun sizes ->
      let s = Slab.create ~capacity:(1 lsl 20) in
      let regions = List.map (fun n -> Slab.alloc s n) sizes in
      let live_ok = Slab.live_regions s = List.length sizes in
      List.iter (Slab.free s) regions;
      live_ok && Slab.live_regions s = 0 && Slab.used_bytes s = 0)

let round8 n = max 16 ((n + 7) land lnot 7)

let prop_slab_block_bounds =
  QCheck.Test.make ~name:"a block is its request rounded to 8 B, at most 8 B more" ~count:500
    QCheck.(pair (list_of_size Gen.(0 -- 20) (int_range 0 5000)) (int_range 0 (1 lsl 18)))
    (fun (earlier, n) ->
      let s = Slab.create ~capacity:(1 lsl 20) in
      (* Allocate and free every other earlier request, so [n] may be
         served from a split or a whole free block. *)
      List.iteri (fun i m -> let r = Slab.alloc s m in if i land 1 = 0 then Slab.free s r) earlier;
      let b = Slab.region_bytes s (Slab.alloc s n) in
      b = round8 n || b = round8 n + 8)

let prop_slab_split_merge =
  QCheck.Test.make ~name:"a freed block is split for a smaller request and merged back" ~count:200
    QCheck.(pair (int_range 1 (1 lsl 20)) (float_bound_inclusive 1.0))
    (fun (n, f) ->
      let m = 1 + int_of_float (f *. float_of_int (n - 1)) in
      let s = Slab.create ~capacity:(1 lsl 21) in
      let r = Slab.alloc s n in
      let _guard = Slab.alloc s 16 in
      Slab.free s r;
      let arena = Slab.arena_bytes s in
      let r' = Slab.alloc s m in
      let reused = r' = r && Slab.arena_bytes s = arena in
      let rest = Slab.free_bytes s = round8 n - Slab.region_bytes s r' in
      Slab.free s r';
      reused && rest && Slab.free_bytes s = round8 n)

(* Random alloc/free sequences: after every step the live regions are
   disjoint, inside the arena and at least as large as their requests,
   [used_bytes] is the sum of their classes, and the data written into
   each live region survives the free-list traffic threaded through the
   free ones. *)
let prop_slab_regions_disjoint =
  QCheck.Test.make ~name:"live regions disjoint, in the arena, accounted" ~count:200
    QCheck.(list_of_size Gen.(1 -- 300) (pair (int_bound 2) (int_range 1 3000)))
    (fun ops ->
      let capacity = 1 lsl 16 in
      let s = Slab.create ~capacity in
      let a = Slab.arena s in
      let live = ref [] in
      let fill off =
        Bytes.make (Slab.region_bytes s off - Slab.header_bytes) (Char.chr (off land 0xFF))
      in
      let intact off =
        Bytes.sub a (off + Slab.header_bytes) (Slab.region_bytes s off - Slab.header_bytes)
        = fill off
      in
      let consistent () =
        let regions = List.sort compare !live in
        let rec disjoint = function
          | (o1, _) :: ((o2, _) :: _ as rest) ->
              o1 + Slab.region_bytes s o1 <= o2 && disjoint rest
          | [ _ ] | [] -> true
        in
        List.for_all
          (fun (off, len) ->
            off >= 0 && off + Slab.region_bytes s off <= capacity
            && Slab.region_bytes s off >= len && intact off)
          regions
        && disjoint regions
        && Slab.used_bytes s
           = List.fold_left (fun acc (off, _) -> acc + Slab.region_bytes s off) 0 regions
        && Slab.live_regions s = List.length regions
      in
      List.for_all
        (fun (op, n) ->
          (match (op, !live) with
          | 0, (_ :: _ as l) ->
              let off, _ = List.nth l (n mod List.length l) in
              Slab.free s off;
              live := List.filter (fun (o, _) -> o <> off) l
          | _ -> (
              match Slab.alloc s n with
              | off ->
                  Slab.write s off ~pos:Slab.header_bytes (fill off);
                  live := (off, n) :: !live
              | exception Slab.Out_of_memory _ -> ()));
          consistent ())
        ops)

(* Random alloc/free sequences, checked by walking the heap after every
   step: the blocks tile [0, arena_bytes) with no gap or overlap, no two
   neighbours are both free, the free blocks are exactly what the free
   lists hold, the used ones are exactly the live regions, and freeing
   everything returns the tail to 0. *)
let prop_slab_heap_tiled =
  QCheck.Test.make ~name:"split and coalesce keep the heap tiled" ~count:300
    QCheck.(list_of_size Gen.(1 -- 400) (pair (int_bound 2) (int_range 0 2000)))
    (fun ops ->
      let s = Slab.create ~capacity:(1 lsl 16) in
      let live = ref [] in
      let tiled () =
        let stop, _, used, free, n_used, ok =
          Slab.fold_blocks s
            (fun off size is_free (stop, prev_free, used, free, n_used, ok) ->
              ( off + size,
                is_free,
                (if is_free then used else used + size),
                (if is_free then free + size else free),
                (if is_free then n_used else n_used + 1),
                ok && off = stop && size >= 16 && size land 7 = 0
                && not (is_free && prev_free)
                && (is_free || List.mem off !live) ))
            (0, false, 0, 0, 0, true)
        in
        ok && stop = Slab.arena_bytes s
        && used = Slab.used_bytes s
        && free = Slab.free_bytes s
        && used + free = Slab.arena_bytes s
        && n_used = List.length !live
        && Slab.live_regions s = n_used
        && Slab.arena_bytes s <= Slab.peak_bytes s
      in
      List.for_all
        (fun (op, n) ->
          (match (op, !live) with
          | 0, (_ :: _ as l) ->
              let off = List.nth l (n mod List.length l) in
              Slab.free s off;
              live := List.filter (fun o -> o <> off) l
          | _ -> (
              match Slab.alloc s n with
              | off -> live := off :: !live
              | exception Slab.Out_of_memory _ -> ()));
          tiled ())
        ops
      &&
      (List.iter (Slab.free s) !live;
       live := [];
       Slab.arena_bytes s = 0 && Slab.used_bytes s = 0 && Slab.free_bytes s = 0 && tiled ()))

(* ------------------------------------------------------------------ *)
(* Spinlock *)

let test_spinlock_basic () =
  let l = Spinlock.create () in
  check bool "acquire free lock" true (Spinlock.try_lock l);
  check bool "contended try fails" false (Spinlock.try_lock l);
  Spinlock.unlock l;
  check bool "re-acquire" true (Spinlock.try_lock l);
  Spinlock.unlock l

let test_spinlock_mutual_exclusion () =
  (* Two domains increment a plain (non-atomic) counter under the lock:
     the final count is exact only if the lock provides mutual exclusion. *)
  let l = Spinlock.create () in
  let counter = ref 0 in
  let per_domain = 50_000 in
  let worker () =
    Domain.spawn (fun () ->
        for _ = 1 to per_domain do
          Spinlock.with_lock l (fun () -> incr counter)
        done)
  in
  let d1 = worker () and d2 = worker () in
  Domain.join d1;
  Domain.join d2;
  check int "no lost updates" (2 * per_domain) !counter

let test_spinlock_releases_on_exception () =
  let l = Spinlock.create () in
  (try Spinlock.with_lock l (fun () -> failwith "boom") with Failure _ -> ());
  check bool "released after exception" true (Spinlock.try_lock l);
  Spinlock.unlock l

(* The specialized default must behave like [Make (Atomic_ops.Native)] —
   the default exists only to avoid functor indirection on the hot path. *)
module NativeLock = Spinlock.Make (Atomic_ops.Native)

let test_spinlock_functor_equivalence () =
  let d = Spinlock.create () and n = NativeLock.create () in
  let ops =
    [ `Try; `Try; `Unlock; `Lock; `Try; `Unlock; `Try; `Unlock; `Try ]
  in
  List.iter
    (fun op ->
      match op with
      | `Try ->
          check bool "try_lock agrees" (NativeLock.try_lock n)
            (Spinlock.try_lock d)
      | `Lock ->
          Spinlock.lock d;
          NativeLock.lock n
      | `Unlock ->
          Spinlock.unlock d;
          NativeLock.unlock n)
    ops;
  Spinlock.unlock d;
  NativeLock.unlock n;
  let counter = ref 0 in
  NativeLock.with_lock n (fun () -> incr counter);
  check int "with_lock runs the body" 1 !counter;
  check bool "released after with_lock" true (NativeLock.try_lock n)

(* ------------------------------------------------------------------ *)
(* Store *)

let small_store () = Store.create ~partition_bits:2 ~bucket_bits:4 ~value_arena_bytes:(1 lsl 20) ()

let test_store_put_get () =
  let s = small_store () in
  Store.put s ~guard:`Lock "alpha" (Bytes.of_string "one");
  Store.put s ~guard:`Lock "beta" (Bytes.of_string "two");
  check (Alcotest.option Alcotest.string) "get alpha" (Some "one")
    (Option.map Bytes.to_string (Store.get s "alpha"));
  check (Alcotest.option Alcotest.string) "get beta" (Some "two")
    (Option.map Bytes.to_string (Store.get s "beta"));
  check (Alcotest.option Alcotest.string) "get missing" None
    (Option.map Bytes.to_string (Store.get s "gamma"));
  check int "item count" 2 (Store.stats s).Store.items

let test_store_update_in_place () =
  let s = small_store () in
  Store.put s ~guard:`Lock "k" (Bytes.of_string "short");
  Store.put s ~guard:`Lock "k" (Bytes.of_string "a much longer replacement value");
  check (Alcotest.option Alcotest.string) "updated" (Some "a much longer replacement value")
    (Option.map Bytes.to_string (Store.get s "k"));
  check int "still one item" 1 (Store.stats s).Store.items;
  (* The old region must have been freed: churn the same key and verify
     arena usage stays bounded. *)
  for i = 1 to 1000 do
    Store.put s ~guard:`Lock "k" (Bytes.of_string (Printf.sprintf "value-%d" i))
  done;
  let used = (Store.stats s).Store.value_bytes in
  if used > 1024 then Alcotest.failf "arena leak: %d bytes for one small item" used

let test_store_size_of () =
  let s = small_store () in
  Store.put s ~guard:`Lock "k" (Bytes.create 12345);
  check (Alcotest.option int) "size_of" (Some 12345) (Store.size_of s "k");
  check (Alcotest.option int) "size_of missing" None (Store.size_of s "nope");
  check int "length" 12345 (Store.length s "k");
  check int "length missing" (-1) (Store.length s "nope")

(* An item is one slab block: a 10-byte header, the key and the value,
   rounded up to 8 B (16 B at least).  Each (key, value) pair below fills
   its block exactly with a 10-byte header, so a header one byte longer
   would take the next block size. *)
let test_store_item_footprint () =
  List.iter
    (fun (klen, vlen) ->
      let s = small_store () in
      Store.put s ~guard:`Lock (String.make klen 'k') (Bytes.create vlen);
      let want = max 16 ((10 + klen + vlen + 7) land lnot 7) in
      check int
        (Printf.sprintf "key %d B + value %d B" klen vlen)
        want (Store.stats s).Store.value_bytes;
      check int "no other block" want (Store.stats s).Store.arena_bytes)
    [ (3, 3); (5, 9); (8, 22); (20, 1002) ]

let test_store_delete () =
  let s = small_store () in
  Store.put s ~guard:`Lock "k" (Bytes.of_string "v");
  check bool "delete present" true (Store.delete s ~guard:`Lock "k");
  check bool "delete absent" false (Store.delete s ~guard:`Lock "k");
  check (Alcotest.option int) "gone" None (Store.size_of s "k");
  check int "count" 0 (Store.stats s).Store.items;
  (* The slot is reusable. *)
  Store.put s ~guard:`Lock "k" (Bytes.of_string "w");
  check (Alcotest.option Alcotest.string) "reinserted" (Some "w")
    (Option.map Bytes.to_string (Store.get s "k"))

let test_store_overflow_chains () =
  (* 1 partition x 2 buckets x 7 slots = 14 slots; 200 keys force overflow
     bucket chaining, and every key must remain reachable. *)
  let s = Store.create ~partition_bits:0 ~bucket_bits:1 ~value_arena_bytes:(1 lsl 20) () in
  for i = 1 to 200 do
    Store.put s ~guard:`Lock (Printf.sprintf "key%d" i)
      (Bytes.of_string (Printf.sprintf "v%d" i))
  done;
  check int "all stored" 200 (Store.stats s).Store.items;
  if (Store.stats s).Store.overflow_buckets = 0 then
    Alcotest.fail "expected overflow buckets";
  for i = 1 to 200 do
    check (Alcotest.option Alcotest.string)
      (Printf.sprintf "key%d survives" i)
      (Some (Printf.sprintf "v%d" i))
      (Option.map Bytes.to_string (Store.get s (Printf.sprintf "key%d" i)))
  done

let test_store_iter () =
  let s = small_store () in
  for i = 1 to 50 do
    Store.put s ~guard:`Lock (Printf.sprintf "k%d" i) (Bytes.create i)
  done;
  let count = ref 0 and bytes = ref 0 in
  Store.iter s (fun _ size ->
      incr count;
      bytes := !bytes + size);
  check int "iter count" 50 !count;
  check int "iter sizes" (50 * 51 / 2) !bytes

let test_store_concurrent_readers_writer () =
  (* One writer updates keys with self-describing values; reader domains
     must never observe a value inconsistent with its key.  Exercises the
     bucket-epoch optimistic read protocol for real. *)
  let s = Store.create ~partition_bits:2 ~bucket_bits:4 ~value_arena_bytes:(1 lsl 22) () in
  let keys = Array.init 16 (fun i -> Printf.sprintf "key-%d" i) in
  Array.iteri
    (fun i k -> Store.put s ~guard:`Lock k (Bytes.of_string (Printf.sprintf "%d:0" i)))
    keys;
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let reader () =
    Domain.spawn (fun () ->
        let r = Dsim.Rng.create (Domain.self () :> int) in
        while not (Atomic.get stop) do
          let i = Dsim.Rng.int r 16 in
          match Store.get s keys.(i) with
          | Some v ->
              let str = Bytes.to_string v in
              (match String.index_opt str ':' with
              | Some colon ->
                  if int_of_string (String.sub str 0 colon) <> i then
                    Atomic.incr violations
              | None -> Atomic.incr violations)
          | None -> Atomic.incr violations
        done)
  in
  let writer =
    Domain.spawn (fun () ->
        for round = 1 to 20_000 do
          let i = round mod 16 in
          Store.put s ~guard:`Lock keys.(i)
            (Bytes.of_string (Printf.sprintf "%d:%d" i round))
        done;
        Atomic.set stop true)
  in
  let r1 = reader () and r2 = reader () in
  Domain.join writer;
  Domain.join r1;
  Domain.join r2;
  check int "no torn reads" 0 (Atomic.get violations)

let test_store_concurrent_mixed_churn () =
  (* Four domains doing mixed put/get/delete churn on a shared key space,
     with values from a few bytes to tens of KB, so readers race blocks
     being split, merged and returned to the tail: no crashes, no torn
     reads, no buffer asked for more than the largest value ever written,
     and a sane final state.  Few keys, so that readers often meet an
     item that a writer is replacing.  Without the epoch check that
     confirms a value length before it sizes the buffer, half of ten runs
     failed; without that check and the arena bound, every run did. *)
  let s = Store.create ~partition_bits:2 ~bucket_bits:3 ~value_arena_bytes:(1 lsl 23) () in
  let n_keys = 8 in
  let keys = Array.init n_keys (fun i -> Printf.sprintf "churn-%d" i) in
  (* The value length encodes the key index, and every byte is the key's
     letter. *)
  let size rng i =
    let k =
      match Dsim.Rng.int rng 3 with
      | 0 -> Dsim.Rng.int rng 4
      | 1 -> Dsim.Rng.int rng 64
      | _ -> Dsim.Rng.int rng 1500
    in
    i + (n_keys * k)
  in
  let largest = n_keys - 1 + (n_keys * 1499) in
  let letter i = Char.chr (Char.code 'A' + i) in
  let errors = Atomic.make 0 in
  let consistent i buf len =
    len mod n_keys = i
    && (len = 0
       || Bytes.get buf 0 = letter i
          && Bytes.get buf (len / 2) = letter i
          && Bytes.get buf (len - 1) = letter i)
  in
  let worker seed =
    Domain.spawn (fun () ->
        let rng = Dsim.Rng.create seed in
        let buf = Bytes.create largest in
        let dst len = if len > largest then failwith "buffer asked for too much" else buf in
        for _ = 1 to 200_000 do
          let i = Dsim.Rng.int rng n_keys in
          match Dsim.Rng.int rng 4 with
          | 0 | 1 -> (
              match Store.read_into s keys.(i) ~buf:dst ~off:0 with
              | len -> if len >= 0 && not (consistent i buf len) then Atomic.incr errors
              | exception Failure _ -> Atomic.incr errors)
          | 2 -> Store.put s ~guard:`Lock keys.(i) (Bytes.make (size rng i) (letter i))
          | _ -> ignore (Store.delete s ~guard:`Lock keys.(i))
        done)
  in
  let ds = List.init 4 (fun d -> worker (100 + d)) in
  List.iter Domain.join ds;
  check int "no inconsistent reads" 0 (Atomic.get errors);
  (* Every surviving key must still be internally consistent. *)
  Array.iteri
    (fun i k ->
      match Store.get s k with
      | Some v -> if not (consistent i v (Bytes.length v)) then Alcotest.fail "corrupt survivor"
      | None -> ())
    keys

let prop_store_model_check =
  (* Compare the store against a Hashtbl model under a random op sequence. *)
  QCheck.Test.make ~name:"store agrees with model" ~count:30
    QCheck.(list_of_size Gen.(1 -- 200)
              (triple (int_bound 20) (int_bound 2) (int_range 0 64)))
    (fun ops ->
      let s = Store.create ~partition_bits:1 ~bucket_bits:2
          ~value_arena_bytes:(1 lsl 20) ()
      in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (key_idx, op, size) ->
          let key = Printf.sprintf "key%d" key_idx in
          match op with
          | 0 ->
              let v = Bytes.make size 'x' in
              Store.put s ~guard:`Lock key v;
              Hashtbl.replace model key size;
              true
          | 1 ->
              let expected = Hashtbl.mem model key in
              Hashtbl.remove model key;
              Store.delete s ~guard:`Lock key = expected
          | _ -> Store.size_of s key = Hashtbl.find_opt model key)
        ops
      && (Store.stats s).Store.items = Hashtbl.length model)

(* Populate a store with the write-intensive mix at [n_keys] keys (of
   which [n_large] large) drawn at [seed], then run 3 PUTs per key that
   redraw every size from the whole dataset, so keys move between tiny,
   small and large; checks every key's size against a model.  Returns the
   arena's high-water mark per initial user (value) byte after the
   population and after the churn. *)
let churn_ratios ~n_keys ~n_large ~seed ~arena =
  let spec =
    { Workload.Spec.write_intensive with Workload.Spec.n_keys = n_keys; n_large_keys = n_large }
  in
  let ds = Workload.Dataset.create ~seed spec in
  let n = Workload.Dataset.n_keys ds in
  let user0 = Workload.Dataset.total_value_bytes ds in
  let s = Store.create ~value_arena_bytes:(int_of_float (arena *. float_of_int user0)) () in
  let model = Array.init n (Workload.Dataset.size_of_key ds) in
  Array.iteri
    (fun id size -> Store.put s ~guard:`Lock (Workload.Dataset.key_name id) (Bytes.create size))
    model;
  let ratio () = float_of_int (Store.stats s).Store.arena_peak_bytes /. float_of_int user0 in
  let population = ratio () in
  let rng = Dsim.Rng.create seed in
  for _ = 1 to 3 * n do
    let id = Workload.Dataset.sample_get_key ds rng in
    let size = Workload.Dataset.size_of_key ds (Dsim.Rng.int rng n) in
    Store.put s ~guard:`Lock (Workload.Dataset.key_name id) (Bytes.create size);
    model.(id) <- size
  done;
  Array.iteri
    (fun id size ->
      if Store.size_of s (Workload.Dataset.key_name id) <> Some size then
        Alcotest.failf "seed %d: key %d lost its value" seed id)
    model;
  (population, ratio ())

(* The paper's key/size mix, as the native benchmark serves it (100k keys,
   62 large), must fit in an arena of 1.3x its user bytes, and keep
   fitting through the write-intensive churn.  The population touches
   exactly its items rounded to 8 B, headers and keys included.
   Measured over ten dataset and churn seeds: population 1.039-1.043x,
   churn 1.040-1.063x (1.062 at seed 1).  The quarter-step size classes
   took 1.13x and up to 1.16x, power-of-two classes 1.47x and 1.49x (and
   raised Out_of_memory here). *)
let test_store_churn_fits () =
  let population, churn = churn_ratios ~n_keys:100_000 ~n_large:62 ~seed:1 ~arena:1.3 in
  if population > 1.06 then
    Alcotest.failf "population touched %.4fx the user bytes (bound 1.06)" population;
  if churn > 1.08 then Alcotest.failf "arena high-water %.4fx the user bytes (bound 1.08)" churn

(* A few large keys churning among many small ones: 20k keys, 12 large,
   the worst of ten seeds.  A block that a large value frees is split for
   the next request and merged back when its neighbours go, so the
   high-water mark stays near the population's (1.037-1.043x).  Measured:
   1.042-1.146x, worst at seed 2; a PUT allocates its new value before it
   frees the old one, so a large key's update briefly holds both.  The
   quarter-step classes, which neither split nor merged, reached 1.33x. *)
let test_store_churn_few_large () =
  let worst =
    List.fold_left
      (fun worst seed ->
        let _, churn = churn_ratios ~n_keys:20_000 ~n_large:12 ~seed ~arena:2.0 in
        Float.max worst churn)
      0.0
      (List.init 10 (fun i -> i + 1))
  in
  if worst > 1.17 then Alcotest.failf "arena high-water %.4fx the user bytes (bound 1.17)" worst

(* The index holds no OCaml object per key: items (header, key, value)
   live in the arena and a slot is one word of a bucket array allocated
   with the store, so populating the native benchmark's 100k keys grows
   the live heap only by the overflow chunks (0.26 words a key measured). *)
let test_store_no_per_key_heap () =
  let n = 100_000 in
  let value = Bytes.create 32 in
  let s = Store.create ~value_arena_bytes:(16 lsl 20) () in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  for id = 0 to n - 1 do
    Store.put s ~guard:`Lock (Workload.Dataset.key_name id) value
  done;
  let words = float_of_int (live () - before) /. float_of_int n in
  check int "all stored" n (Store.stats s).Store.items;
  if words > 2.0 then Alcotest.failf "%.2f heap words per key (bound 2)" words

(* Growing the index allocates only what it keeps: overflow buckets come
   in chunks that are never copied, so the words allocated while
   populating the native benchmark's 100k keys stay within 1.1x the words
   the index gained.  A pool that doubled and copied its table allocated
   about 4x what it kept.  The keys are built before counting. *)
let test_store_index_growth_copies_nothing () =
  let n = 100_000 in
  let keys = Array.init n Workload.Dataset.key_name in
  let value = Bytes.create 32 in
  let s = Store.create ~value_arena_bytes:(16 lsl 20) () in
  (* [Gc.stat], not [quick_stat]: this runtime's quick counters miss the
     chunks, which go straight to the major heap. *)
  let allocated () =
    let st = Gc.stat () in
    st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words
  in
  let held0 = (Store.stats s).Store.index_words in
  let w0 = allocated () in
  Array.iter (fun key -> Store.put s ~guard:`Lock key value) keys;
  let words = allocated () -. w0 in
  let st = Store.stats s in
  check int "all stored" n st.Store.items;
  if st.Store.overflow_buckets = 0 then Alcotest.fail "expected overflow buckets";
  let grown = float_of_int (st.Store.index_words - held0) in
  if words > 1.1 *. grown then
    Alcotest.failf "populating allocated %.0f words for %.0f index words gained" words grown

(* Readers racing a writer that keeps appending overflow chunks: with 16
   primary buckets, 30k inserts link ~270 overflow buckets a chain, so a
   reader's spine snapshot is often older than a link it follows.  Such
   an attempt retries; no read raises or returns a wrong value. *)
let test_store_chunk_append_race () =
  let n = 30_000 in
  let s = Store.create ~partition_bits:0 ~bucket_bits:4 ~value_arena_bytes:(1 lsl 22) () in
  let keys = Array.init n (Printf.sprintf "chunk-%06d") in
  let published = Atomic.make 0 and stop = Atomic.make false in
  let reader seed =
    Domain.spawn (fun () ->
        let rng = Dsim.Rng.create seed in
        let buf = Bytes.create 8 in
        let dst _ = buf in
        let reads = ref 0 and wrong = ref 0 in
        while not (Atomic.get stop) do
          let upto = Atomic.get published in
          let i = Dsim.Rng.int rng n in
          (match Store.read_into s keys.(i) ~buf:dst ~off:0 with
          | 8 -> if Bytes.get_int64_le buf 0 <> Int64.of_int i then incr wrong
          | -1 -> if i < upto then incr wrong
          | _ -> incr wrong);
          incr reads
        done;
        (!reads, !wrong))
  in
  let readers = List.map reader [ 1; 2 ] in
  let value = Bytes.create 8 in
  Array.iteri
    (fun i key ->
      Bytes.set_int64_le value 0 (Int64.of_int i);
      Store.put s ~guard:`Lock key value;
      Atomic.set published (i + 1))
    keys;
  Atomic.set stop true;
  List.iter
    (fun d ->
      let reads, wrong = Domain.join d in
      if reads = 0 then Alcotest.fail "a reader never ran";
      check int "wrong reads" 0 wrong)
    readers;
  if (Store.stats s).Store.overflow_buckets < 64 then Alcotest.fail "expected several chunks"

(* A GET copying into a reused buffer, a PUT over an existing key and a
   size lookup allocate nothing on the OCaml heap. *)
let test_store_zero_alloc_ops () =
  let s = Store.create ~partition_bits:2 ~bucket_bits:4 ~value_arena_bytes:(1 lsl 22) () in
  let keys = Array.init 1000 (Printf.sprintf "key-%04d") in
  let value = Bytes.make 100 'v' in
  Array.iter (fun key -> Store.put s ~guard:`Lock key value) keys;
  if (Store.stats s).Store.overflow_buckets = 0 then
    Alcotest.fail "expected overflow chains to be walked";
  let buf = Bytes.create 128 in
  let dst _ = buf in
  let ops = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 0 to ops - 1 do
    if Store.read_into s keys.(i mod 1000) ~buf:dst ~off:0 <> 100 then
      Alcotest.fail "read_into lost a key"
  done;
  let w1 = Gc.minor_words () in
  for i = 0 to ops - 1 do
    Store.put s ~guard:`Lock keys.(i mod 1000) value
  done;
  let w2 = Gc.minor_words () in
  for i = 0 to ops - 1 do
    if Store.length s keys.(i mod 1000) <> 100 then Alcotest.fail "length lost a key"
  done;
  let w3 = Gc.minor_words () in
  check (Alcotest.float 0.0) "read_into words/op" 0.0 ((w1 -. w0) /. float_of_int ops);
  check (Alcotest.float 0.0) "overwriting put words/op" 0.0 ((w2 -. w1) /. float_of_int ops);
  check (Alcotest.float 0.0) "length words/op" 0.0 ((w3 -. w2) /. float_of_int ops);
  check int "still 1000 items" 1000 (Store.stats s).Store.items

(* The index build racing a writer: one domain inserts and deletes keys
   while the first scan builds the index.  After the join, a full scan
   must list exactly the store's keys, in order. *)
let test_store_ordered_build_race () =
  for round = 1 to 20 do
    let s = Store.create ~partition_bits:2 ~bucket_bits:6 ~value_arena_bytes:(1 lsl 22) () in
    for i = 0 to 9_999 do
      Store.put s ~guard:`Lock (Printf.sprintf "base-%05d" i) (Bytes.create 8)
    done;
    let started = Atomic.make false and stop = Atomic.make false in
    let writer =
      Domain.spawn (fun () ->
          let rng = Dsim.Rng.create round in
          let delete key = ignore (Store.delete s ~guard:`Lock key) in
          let i = ref 0 in
          while not (Atomic.get stop) do
            Store.put s ~guard:`Lock (Printf.sprintf "new-%06d" !i) (Bytes.create 8);
            delete (Printf.sprintf "base-%05d" (Dsim.Rng.int rng 10_000));
            if !i >= 3 then delete (Printf.sprintf "new-%06d" (!i - 3));
            incr i;
            Atomic.set started true
          done)
    in
    while not (Atomic.get started) do
      Domain.cpu_relax ()
    done;
    ignore (Store.scan s ~start:"" ~count:1 (fun _ _ -> ()));
    Atomic.set stop true;
    Domain.join writer;
    let scanned = ref [] in
    ignore (Store.scan s ~start:"" ~count:max_int (fun key _ -> scanned := key :: !scanned));
    let keys = ref [] in
    Store.iter s (fun key _ -> keys := key :: !keys);
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "round %d: scan = sorted key set" round)
      (List.sort String.compare !keys) (List.rev !scanned)
  done

(* Two domains issue their first scan at once, so one of them builds the
   index while the other arrives mid-build.  Both must see the full
   prefix: a scan that finds the build in flight waits for its snapshot
   instead of walking an empty one. *)
let test_store_first_scans_race () =
  let n = 50_000 and count = 10 in
  let names = Array.init n Workload.Dataset.key_name in
  let expect =
    List.filteri (fun i _ -> i < count) (List.sort String.compare (Array.to_list names))
  in
  for round = 1 to 10 do
    let s = Store.create ~value_arena_bytes:(8 lsl 20) () in
    Array.iter (fun key -> Store.put s ~guard:`Lock key (Bytes.create 8)) names;
    let arrived = Atomic.make 0 in
    let first_scan () =
      Atomic.incr arrived;
      while Atomic.get arrived < 2 do
        Domain.cpu_relax ()
      done;
      let got = ref [] in
      ignore (Store.scan s ~start:"" ~count (fun key _ -> got := key :: !got));
      List.rev !got
    in
    let other = Domain.spawn first_scan in
    let mine = first_scan () in
    let theirs = Domain.join other in
    List.iter
      (fun got ->
        check (Alcotest.list Alcotest.string)
          (Printf.sprintf "round %d: the first %d keys" round count)
          expect got)
      [ mine; theirs ]
  done

let () =
  Alcotest.run "kvstore"
    [
      ( "keyhash",
        [
          Alcotest.test_case "deterministic" `Quick test_keyhash_deterministic;
          Alcotest.test_case "field ranges" `Quick test_keyhash_field_ranges;
          Alcotest.test_case "partition spread" `Quick test_keyhash_partition_spread;
          Alcotest.test_case "bits validation" `Quick test_keyhash_bits_validation;
        ]
        @ qsuite [ prop_tag_never_zero ] );
      ( "slab",
        [
          Alcotest.test_case "exact fit" `Quick test_slab_exact_fit;
          Alcotest.test_case "alloc write read" `Quick test_slab_alloc_write_read;
          Alcotest.test_case "free and reuse" `Quick test_slab_free_and_reuse;
          Alcotest.test_case "double free" `Quick test_slab_double_free;
          Alcotest.test_case "out of memory" `Quick test_slab_out_of_memory;
          Alcotest.test_case "write overflow" `Quick test_slab_write_overflow;
        ]
        @ qsuite
            [
              prop_slab_many_alloc_free;
              prop_slab_block_bounds;
              prop_slab_split_merge;
              prop_slab_regions_disjoint;
              prop_slab_heap_tiled;
            ] );
      ( "spinlock",
        [
          Alcotest.test_case "basic" `Quick test_spinlock_basic;
          Alcotest.test_case "mutual exclusion" `Slow test_spinlock_mutual_exclusion;
          Alcotest.test_case "exception safety" `Quick test_spinlock_releases_on_exception;
          Alcotest.test_case "functor equivalence" `Quick
            test_spinlock_functor_equivalence;
        ] );
      ( "store",
        [
          Alcotest.test_case "put get" `Quick test_store_put_get;
          Alcotest.test_case "update in place" `Quick test_store_update_in_place;
          Alcotest.test_case "size_of" `Quick test_store_size_of;
          Alcotest.test_case "item footprint" `Quick test_store_item_footprint;
          Alcotest.test_case "delete" `Quick test_store_delete;
          Alcotest.test_case "overflow chains" `Quick test_store_overflow_chains;
          Alcotest.test_case "iter" `Quick test_store_iter;
          Alcotest.test_case "concurrent readers/writer" `Slow
            test_store_concurrent_readers_writer;
          Alcotest.test_case "concurrent mixed churn" `Slow
            test_store_concurrent_mixed_churn;
          Alcotest.test_case "paper mix fits through churn" `Quick test_store_churn_fits;
          Alcotest.test_case "few large keys churn within bounds" `Quick test_store_churn_few_large;
          Alcotest.test_case "no per-key heap objects" `Quick test_store_no_per_key_heap;
          Alcotest.test_case "index growth copies nothing" `Quick
            test_store_index_growth_copies_nothing;
          Alcotest.test_case "readers race chunk appends" `Quick test_store_chunk_append_race;
          Alcotest.test_case "zero-allocation store ops" `Quick test_store_zero_alloc_ops;
          Alcotest.test_case "ordered build races a writer" `Slow
            test_store_ordered_build_race;
          Alcotest.test_case "first scans race" `Slow test_store_first_scans_race;
        ]
        @ qsuite [ prop_store_model_check ] );
    ]
