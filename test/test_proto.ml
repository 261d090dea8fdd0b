(* Tests for the wire protocol: codecs and fragmentation/reassembly. *)

open Proto

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let req ?(id = 7L) ?(op = Wire.Get) ?(key = "mykey") ?value ?(ts = 123456789L)
    ?(rx = 3) () =
  { Wire.id; op; key; value; client_ts = ts; target_rx = rx }

(* ------------------------------------------------------------------ *)
(* Wire *)

let test_request_roundtrip_get () =
  let r = req () in
  match Wire.decode_request (Wire.encode_request r) with
  | Ok r' ->
      check Alcotest.int64 "id" r.Wire.id r'.Wire.id;
      check bool "op" true (r'.Wire.op = Wire.Get);
      check Alcotest.string "key" "mykey" r'.Wire.key;
      check bool "no value" true (r'.Wire.value = None);
      check Alcotest.int64 "ts" r.Wire.client_ts r'.Wire.client_ts;
      check int "rx" 3 r'.Wire.target_rx
  | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e

let test_request_roundtrip_put () =
  let value = Bytes.of_string (String.make 5000 'v') in
  let r = req ~op:Wire.Put ~value () in
  match Wire.decode_request (Wire.encode_request r) with
  | Ok r' ->
      check bool "op" true (r'.Wire.op = Wire.Put);
      check (Alcotest.option Alcotest.bytes) "value" (Some value) r'.Wire.value
  | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e

let test_empty_value_distinct_from_none () =
  (* A PUT of a zero-length value is not the same as a GET's absent
     value. *)
  let r = req ~op:Wire.Put ~value:Bytes.empty () in
  match Wire.decode_request (Wire.encode_request r) with
  | Ok r' -> check (Alcotest.option Alcotest.bytes) "empty value" (Some Bytes.empty) r'.Wire.value
  | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e

let test_reply_roundtrip () =
  let rep =
    { Wire.id = 99L; status = Wire.Ok; value = Some (Bytes.of_string "data");
      client_ts = 42L }
  in
  (match Wire.decode_reply (Wire.encode_reply rep) with
  | Ok r ->
      check Alcotest.int64 "id" 99L r.Wire.id;
      check bool "status" true (r.Wire.status = Wire.Ok);
      check (Alcotest.option Alcotest.string) "value" (Some "data")
        (Option.map Bytes.to_string r.Wire.value)
  | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e);
  let nf = { Wire.id = 1L; status = Wire.Not_found; value = None; client_ts = 0L } in
  match Wire.decode_reply (Wire.encode_reply nf) with
  | Ok r -> check bool "not found" true (r.Wire.status = Wire.Not_found)
  | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e

let test_decode_errors () =
  let good = Wire.encode_request (req ()) in
  (match Wire.decode_request (Bytes.sub good 0 5) with
  | Error Wire.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated");
  let bad_magic = Bytes.copy good in
  Bytes.set_uint8 bad_magic 0 0x00;
  (match Wire.decode_request bad_magic with
  | Error Wire.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  let bad_op = Bytes.copy good in
  Bytes.set_uint8 bad_op 2 200;
  (match Wire.decode_request bad_op with
  | Error Wire.Bad_op -> ()
  | _ -> Alcotest.fail "expected Bad_op");
  (* Truncated value payload. *)
  let put = Wire.encode_request (req ~op:Wire.Put ~value:(Bytes.create 100) ()) in
  match Wire.decode_request (Bytes.sub put 0 (Bytes.length put - 1)) with
  | Error Wire.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated value"

let test_version_in_header () =
  (* Byte 1 of every message is the protocol version, after the magic. *)
  let r = Wire.encode_request (req ()) in
  check int "request version byte" Wire.version (Bytes.get_uint8 r 1);
  let rep = { Wire.id = 1L; status = Wire.Ok; value = None; client_ts = 0L } in
  let e = Wire.encode_reply rep in
  check int "reply version byte" Wire.version (Bytes.get_uint8 e 1);
  (* Round trip: what we encode, we accept. *)
  (match Wire.decode_request r with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "same-version decode failed: %a" Wire.pp_error e);
  match Wire.decode_reply e with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "same-version reply decode failed: %a" Wire.pp_error e

let test_unknown_version_rejected () =
  (* Forward compatibility: a well-formed message from a future protocol
     version is rejected cleanly (not mis-parsed under current offsets). *)
  let future = Wire.encode_request (req ~op:Wire.Put ~value:(Bytes.create 8) ()) in
  Bytes.set_uint8 future 1 (Wire.version + 1);
  (match Wire.decode_request future with
  | Error (Wire.Bad_version v) -> check int "reported version" (Wire.version + 1) v
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error e -> Alcotest.failf "expected Bad_version, got: %a" Wire.pp_error e);
  let rep = { Wire.id = 9L; status = Wire.Overloaded; value = None; client_ts = 4L } in
  let old = Wire.encode_reply rep in
  Bytes.set_uint8 old 1 0;
  (match Wire.decode_reply old with
  | Error (Wire.Bad_version 0) -> ()
  | _ -> Alcotest.fail "version-0 reply accepted");
  (* Version is checked before the opcode: a future message with an opcode
     we do not know must still report the version mismatch. *)
  let both = Wire.encode_request (req ()) in
  Bytes.set_uint8 both 1 7;
  Bytes.set_uint8 both 2 250;
  match Wire.decode_request both with
  | Error (Wire.Bad_version 7) -> ()
  | _ -> Alcotest.fail "expected Bad_version before Bad_op"

let test_size_accessors_match_encoding () =
  let get = req () in
  check int "get_request_size" (Bytes.length (Wire.encode_request get))
    (Wire.get_request_size ~key_len:5);
  let put = req ~op:Wire.Put ~value:(Bytes.create 321) () in
  check int "put_request_size" (Bytes.length (Wire.encode_request put))
    (Wire.put_request_size ~key_len:5 ~value_len:321);
  let rep = { Wire.id = 1L; status = Wire.Ok; value = Some (Bytes.create 77);
              client_ts = 0L } in
  check int "get_reply_size" (Bytes.length (Wire.encode_reply rep))
    (Wire.get_reply_size ~value_len:77);
  let prep = { Wire.id = 1L; status = Wire.Ok; value = None; client_ts = 0L } in
  check int "put_reply_size" (Bytes.length (Wire.encode_reply prep)) Wire.put_reply_size

let prop_decode_never_crashes =
  (* Fuzz: arbitrary bytes must decode to Ok/Error, never raise — a UDP
     server feeds attacker-controlled datagrams straight into these. *)
  QCheck.Test.make ~name:"decoders total on arbitrary input" ~count:1000
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let b = Bytes.of_string s in
      (match Wire.decode_request b with Ok _ | Error _ -> ());
      (match Wire.decode_reply b with Ok _ | Error _ -> ());
      true)

let prop_fragment_offer_never_crashes =
  QCheck.Test.make ~name:"reassembler total on arbitrary datagrams" ~count:500
    QCheck.(list_of_size Gen.(1 -- 20) (string_of_size Gen.(0 -- 100)))
    (fun datagrams ->
      let r = Fragment.create_reassembler () in
      List.iter (fun s -> ignore (Fragment.offer r (Bytes.of_string s))) datagrams;
      true)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request codec roundtrip" ~count:300
    QCheck.(quad small_string (option (string_of_size Gen.(0 -- 3000)))
              (int_bound 0xFFFF) (int_bound 1000000))
    (fun (key, value, rx, id) ->
      let op = match value with Some _ -> Wire.Put | None -> Wire.Get in
      let r =
        { Wire.id = Int64.of_int id; op; key;
          value = Option.map Bytes.of_string value;
          client_ts = Int64.of_int (id * 3); target_rx = rx }
      in
      match Wire.decode_request (Wire.encode_request r) with
      | Ok r' ->
          r'.Wire.key = key && r'.Wire.target_rx = rx
          && Option.map Bytes.to_string r'.Wire.value = value
      | Error _ -> false)

let gen_request =
  QCheck.Gen.(
    map
      (fun ((id, op, key), (value, client_ts, target_rx)) ->
        { Wire.id; op; key; value = Option.map Bytes.of_string value; client_ts; target_rx })
      (pair
         (triple ui64 (oneofl [ Wire.Get; Wire.Put; Wire.Delete; Wire.Scan ])
            (string_size (int_bound 300)))
         (triple (opt (string_size (int_bound 3000))) ui64 (int_bound 0xFFFF))))

let gen_reply =
  QCheck.Gen.(
    map
      (fun (id, status, value, client_ts) ->
        { Wire.id; status; value = Option.map Bytes.of_string value; client_ts })
      (quad ui64
         (oneofl [ Wire.Ok; Wire.Not_found; Wire.Overloaded ])
         (opt (string_size (int_bound 3000)))
         ui64))

let prop_codecs_roundtrip_every_field =
  QCheck.Test.make ~name:"request and reply codecs round-trip every field" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_request gen_reply))
    (fun (req, rep) ->
      Wire.decode_request (Wire.encode_request req) = Ok req
      && Wire.decode_reply (Wire.encode_reply rep) = Ok rep)

let prop_mutated_decode_total =
  (* Nearly valid datagrams — a header field flipped, a length cut short,
     junk appended — are where a decoder trusts a length it should not. *)
  let bases =
    List.concat_map
      (fun seed ->
        let rand = Random.State.make [| seed |] in
        [
          Bytes.to_string (Wire.encode_request (gen_request rand));
          Bytes.to_string (Wire.encode_reply (gen_reply rand));
        ])
      [ 1; 2; 3; 4 ]
  in
  QCheck.Test.make ~name:"decoders total on mutated encodings" ~count:1000
    (Fuzz.mutated ~alphabet:Fuzz.bytes_alphabet bases)
    (fun s ->
      let b = Bytes.of_string s in
      match (Wire.decode_request b, Wire.decode_reply b) with
      | _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Fragment *)

let test_fragment_counts () =
  check int "empty -> 1" 1 (Fragment.fragments_for 0);
  check int "fits" 1 (Fragment.fragments_for Fragment.max_fragment_payload);
  check int "one over" 2 (Fragment.fragments_for (Fragment.max_fragment_payload + 1));
  check int "header size" 15 Fragment.header_size

let test_split_respects_mtu () =
  let msg = Bytes.create 10_000 in
  let frags = Fragment.split ~msg_id:5L msg in
  check int "fragment count" (Fragment.fragments_for 10_000) (List.length frags);
  List.iter
    (fun f ->
      if Bytes.length f > Netsim.Frame.max_udp_payload then
        Alcotest.fail "fragment exceeds UDP payload")
    frags

let test_reassembly_in_order () =
  let msg = Bytes.init 5000 (fun i -> Char.chr (i mod 256)) in
  let frags = Fragment.split ~msg_id:9L msg in
  let r = Fragment.create_reassembler () in
  let rec feed = function
    | [] -> Alcotest.fail "never completed"
    | [ last ] -> (
        match Fragment.offer r last with
        | Some (id, out) ->
            check Alcotest.int64 "msg id" 9L id;
            check Alcotest.bytes "payload" msg out
        | None -> Alcotest.fail "final fragment should complete")
    | f :: rest ->
        (match Fragment.offer r f with
        | None -> ()
        | Some _ -> Alcotest.fail "completed early");
        feed rest
  in
  feed frags;
  check int "nothing pending" 0 (Fragment.pending r)

let test_reassembly_out_of_order_and_interleaved () =
  let m1 = Bytes.init 4000 (fun i -> Char.chr (i mod 251)) in
  let m2 = Bytes.init 6000 (fun i -> Char.chr ((i * 7) mod 253)) in
  let f1 = Fragment.split ~msg_id:1L m1 in
  let f2 = Fragment.split ~msg_id:2L m2 in
  let r = Fragment.create_reassembler () in
  let completed = Hashtbl.create 4 in
  (* Interleave reversed fragment lists of two messages. *)
  let rec weave a b =
    match (a, b) with
    | [], [] -> ()
    | x :: xs, b ->
        (match Fragment.offer r x with
        | Some (id, out) -> Hashtbl.replace completed id out
        | None -> ());
        weave b xs
    | [], x :: xs ->
        (match Fragment.offer r x with
        | Some (id, out) -> Hashtbl.replace completed id out
        | None -> ());
        weave [] xs
  in
  weave (List.rev f1) (List.rev f2);
  check (Alcotest.option Alcotest.bytes) "m1" (Some m1) (Hashtbl.find_opt completed 1L);
  check (Alcotest.option Alcotest.bytes) "m2" (Some m2) (Hashtbl.find_opt completed 2L)

let test_duplicate_fragments_ignored () =
  let msg = Bytes.create 4000 in
  let frags = Fragment.split ~msg_id:3L msg in
  let r = Fragment.create_reassembler () in
  match frags with
  | first :: rest ->
      ignore (Fragment.offer r first);
      ignore (Fragment.offer r first);
      (* duplicate *)
      let final = List.fold_left (fun _ f -> Fragment.offer r f) None rest in
      (match final with
      | Some (_, out) -> check int "length preserved" 4000 (Bytes.length out)
      | None -> Alcotest.fail "should have completed")
  | [] -> Alcotest.fail "expected fragments"

let test_garbage_datagrams_ignored () =
  let r = Fragment.create_reassembler () in
  check bool "short" true (Fragment.offer r (Bytes.create 3) = None);
  let junk = Bytes.make 100 '\x42' in
  check bool "bad magic" true (Fragment.offer r junk = None);
  check int "no partials" 0 (Fragment.pending r)

let prop_fragment_roundtrip =
  QCheck.Test.make ~name:"fragment/reassemble roundtrip, shuffled" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 20_000)) small_nat)
    (fun (payload, seed) ->
      let msg = Bytes.of_string payload in
      let frags = Array.of_list (Fragment.split ~msg_id:77L msg) in
      (* Fisher-Yates shuffle with a deterministic RNG. *)
      let rng = Dsim.Rng.create seed in
      for i = Array.length frags - 1 downto 1 do
        let j = Dsim.Rng.int rng (i + 1) in
        let tmp = frags.(i) in
        frags.(i) <- frags.(j);
        frags.(j) <- tmp
      done;
      let r = Fragment.create_reassembler () in
      let result =
        Array.fold_left
          (fun acc f -> match Fragment.offer r f with Some (_, m) -> Some m | None -> acc)
          None frags
      in
      result = Some msg)

(* [Fragment.offer] as it was before its single-datagram fast path: every
   message, one fragment or many, went through the partial table. *)
module Old_offer = struct
  type partial = { count : int; parts : bytes option array; mutable received : int }

  let create () : (int64, partial) Hashtbl.t = Hashtbl.create 16

  let offer t datagram =
    let len = Bytes.length datagram in
    if len < Fragment.header_size then None
    else if Bytes.get_uint8 datagram 0 <> 0xF7 then None
    else begin
      let msg_id = Bytes.get_int64_le datagram 1 in
      let index = Bytes.get_uint16_le datagram 9 in
      let count = Bytes.get_uint16_le datagram 11 in
      let plen = Bytes.get_uint16_le datagram 13 in
      if count = 0 || index >= count || len < Fragment.header_size + plen then None
      else begin
        let partial =
          match Hashtbl.find_opt t msg_id with
          | Some p when p.count = count -> Some p
          | Some _ -> None
          | None ->
              let p = { count; parts = Array.make count None; received = 0 } in
              Hashtbl.add t msg_id p;
              Some p
        in
        match partial with
        | None -> None
        | Some p ->
            (match p.parts.(index) with
            | Some _ -> ()
            | None ->
                p.parts.(index) <- Some (Bytes.sub datagram Fragment.header_size plen);
                p.received <- p.received + 1);
            if p.received = p.count then begin
              Hashtbl.remove t msg_id;
              let parts = List.filter_map Fun.id (Array.to_list p.parts) in
              Some (msg_id, Bytes.concat Bytes.empty parts)
            end
            else None
      end
    end
end

(* Random fragment streams: messages of 0-3 fragments under four ids, so
   ids collide with different fragment counts; every datagram may be
   duplicated, truncated or replaced by garbage, and the stream is
   shuffled.  The fast path must answer exactly as the old [offer]. *)
let prop_offer_fast_path_unchanged =
  QCheck.Test.make ~name:"offer matches the pre-fast-path offer" ~count:500
    QCheck.(
      pair (list_of_size Gen.(1 -- 10) (pair (int_bound 3) (int_bound 4000))) small_nat)
    (fun (msgs, seed) ->
      let rng = Dsim.Rng.create seed in
      let stream =
        List.concat_map
          (fun (id, size) ->
            let msg =
              Bytes.init size (fun i -> Char.chr ((i + (7 * id) + size) land 0xFF))
            in
            List.concat_map
              (fun d ->
                match Dsim.Rng.int rng 8 with
                | 0 -> [ d; Bytes.copy d ] (* duplicated *)
                | 1 -> [ Bytes.sub d 0 (Dsim.Rng.int rng (Bytes.length d)) ] (* cut *)
                | 2 -> [ Bytes.make (Dsim.Rng.int rng 40) '\xF7' ] (* garbage *)
                | _ -> [ d ])
              (Fragment.split ~msg_id:(Int64.of_int id) msg))
          msgs
        |> Array.of_list
      in
      for i = Array.length stream - 1 downto 1 do
        let j = Dsim.Rng.int rng (i + 1) in
        let tmp = stream.(i) in
        stream.(i) <- stream.(j);
        stream.(j) <- tmp
      done;
      let fresh = Fragment.create_reassembler () and old = Old_offer.create () in
      Array.for_all
        (fun d ->
          Fragment.offer fresh (Bytes.copy d) = Old_offer.offer old (Bytes.copy d)
          && Fragment.pending fresh = Hashtbl.length old)
        stream)

(* In-place framing sends exactly the datagrams [split] makes, at every
   size around the fragment boundaries. *)
let test_frame_in_place_matches_split () =
  let mfp = Fragment.max_fragment_payload in
  List.iter
    (fun total ->
      let msg = Bytes.init total (fun i -> Char.chr ((i * 31) land 0xFF)) in
      let buf = Bytes.create (Fragment.header_size + total) in
      Bytes.blit msg 0 buf Fragment.header_size total;
      List.iteri
        (fun index expected ->
          let len = Fragment.frame_in_place buf ~msg_id:42L ~total ~index in
          check Alcotest.bytes
            (Printf.sprintf "%d bytes, fragment %d" total index)
            expected (Bytes.sub buf (index * mfp) len))
        (Fragment.split ~msg_id:42L msg))
    [ 0; 1; mfp - 1; mfp; mfp + 1; (2 * mfp) - 1; 2 * mfp; (2 * mfp) + 1; 10_000 ]

(* A reply header written in place, followed by the value, is the reply
   [encode_reply] makes. *)
let test_reply_header_in_place () =
  List.iter
    (fun (status, value) ->
      let r = { Wire.id = 99L; status; value; client_ts = 5L } in
      let vlen = match value with Some v -> Bytes.length v | None -> -1 in
      let off = 17 in
      let buf = Bytes.make (off + Wire.reply_header_size + max 0 vlen) '?' in
      Wire.write_reply_header buf ~off ~id:99L ~status ~client_ts:5L ~value_len:vlen;
      Option.iter (fun v -> Bytes.blit v 0 buf (off + Wire.reply_header_size) vlen) value;
      check Alcotest.bytes "in place = encoded" (Wire.encode_reply r)
        (Bytes.sub buf off (Bytes.length buf - off)))
    [
      (Wire.Ok, Some (Bytes.of_string "value"));
      (Wire.Ok, Some Bytes.empty);
      (Wire.Not_found, None);
      (Wire.Overloaded, None);
    ]

(* Wire messages larger than one frame survive the full encode -> fragment
   -> reassemble -> decode pipeline. *)
let test_end_to_end_large_put () =
  let value = Bytes.init 300_000 (fun i -> Char.chr (i mod 256)) in
  let r = req ~op:Wire.Put ~value () in
  let encoded = Wire.encode_request r in
  let frags = Fragment.split ~msg_id:55L encoded in
  check bool "multi-frame" true (List.length frags > 100);
  let re = Fragment.create_reassembler () in
  let out = List.fold_left (fun acc f ->
      match Fragment.offer re f with Some (_, m) -> Some m | None -> acc)
      None frags
  in
  match out with
  | Some m -> (
      match Wire.decode_request m with
      | Ok r' -> check (Alcotest.option Alcotest.bytes) "value intact" (Some value) r'.Wire.value
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e)
  | None -> Alcotest.fail "reassembly failed"

let () =
  Alcotest.run "proto"
    [
      ( "wire",
        [
          Alcotest.test_case "get roundtrip" `Quick test_request_roundtrip_get;
          Alcotest.test_case "put roundtrip" `Quick test_request_roundtrip_put;
          Alcotest.test_case "empty vs absent value" `Quick
            test_empty_value_distinct_from_none;
          Alcotest.test_case "reply roundtrip" `Quick test_reply_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "version in header" `Quick test_version_in_header;
          Alcotest.test_case "unknown version rejected" `Quick
            test_unknown_version_rejected;
          Alcotest.test_case "size accessors" `Quick test_size_accessors_match_encoding;
          Alcotest.test_case "reply header in place" `Quick test_reply_header_in_place;
        ]
        @ qsuite
            [ prop_request_roundtrip; prop_codecs_roundtrip_every_field;
              prop_decode_never_crashes; prop_mutated_decode_total;
              prop_fragment_offer_never_crashes ] );
      ( "fragment",
        [
          Alcotest.test_case "counts" `Quick test_fragment_counts;
          Alcotest.test_case "split respects mtu" `Quick test_split_respects_mtu;
          Alcotest.test_case "in-order reassembly" `Quick test_reassembly_in_order;
          Alcotest.test_case "out of order + interleaved" `Quick
            test_reassembly_out_of_order_and_interleaved;
          Alcotest.test_case "duplicates ignored" `Quick test_duplicate_fragments_ignored;
          Alcotest.test_case "garbage ignored" `Quick test_garbage_datagrams_ignored;
          Alcotest.test_case "end-to-end large put" `Quick test_end_to_end_large_put;
          Alcotest.test_case "framed in place = split" `Quick
            test_frame_in_place_matches_split;
        ]
        @ qsuite [ prop_fragment_roundtrip; prop_offer_fast_path_unchanged ] );
    ]
