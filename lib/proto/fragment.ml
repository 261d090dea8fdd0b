let fragment_magic = 0xF7

let header_size = 1 + 8 + 2 + 2 + 2

let max_fragment_payload = Netsim.Frame.max_udp_payload - header_size

let fragments_for size =
  if size < 0 then invalid_arg "Fragment.fragments_for: negative size";
  if size = 0 then 1 else (size + max_fragment_payload - 1) / max_fragment_payload

let write_header b ~off ~msg_id ~index ~count ~len =
  Bytes.set_uint8 b off fragment_magic;
  Bytes.set_int64_le b (off + 1) msg_id;
  Bytes.set_uint16_le b (off + 9) index;
  Bytes.set_uint16_le b (off + 11) count;
  Bytes.set_uint16_le b (off + 13) len

let checked_count total =
  let count = fragments_for total in
  if count > 0xFFFF then invalid_arg "Fragment: message too large";
  count

let split ~msg_id msg =
  let total = Bytes.length msg in
  let count = checked_count total in
  List.init count (fun i ->
      let off = i * max_fragment_payload in
      let len = min max_fragment_payload (total - off) in
      let b = Bytes.create (header_size + len) in
      write_header b ~off:0 ~msg_id ~index:i ~count ~len;
      Bytes.blit msg off b header_size len;
      b)

(* Fragment [index]'s payload sits at [header_size + index * m], where [m]
   is [max_fragment_payload], so its header goes at [index * m]: over the
   last [header_size] payload bytes of fragment [index - 1], which has been
   sent by then. *)
let frame_in_place buf ~msg_id ~total ~index =
  let count = checked_count total in
  let off = index * max_fragment_payload in
  let len = min max_fragment_payload (total - off) in
  write_header buf ~off ~msg_id ~index ~count ~len;
  header_size + len

type partial = {
  count : int;
  parts : bytes option array;
  mutable received : int;
}

type reassembler = (int64, partial) Hashtbl.t

let create_reassembler () = Hashtbl.create 16

let offer t datagram =
  let len = Bytes.length datagram in
  if len < header_size then None
  else if Bytes.get_uint8 datagram 0 <> fragment_magic then None
  else begin
    let msg_id = Bytes.get_int64_le datagram 1 in
    let index = Bytes.get_uint16_le datagram 9 in
    let count = Bytes.get_uint16_le datagram 11 in
    let plen = Bytes.get_uint16_le datagram 13 in
    if count = 0 || index >= count || len < header_size + plen then None
    else if count = 1 && not (Hashtbl.mem t msg_id) then
      (* A whole message in one datagram: nothing to reassemble. *)
      Some (msg_id, Bytes.sub datagram header_size plen)
    else begin
      let partial =
        match Hashtbl.find_opt t msg_id with
        | Some p when p.count = count -> Some p
        | Some _ -> None (* conflicting fragment count: drop *)
        | None ->
            let p = { count; parts = Array.make count None; received = 0 } in
            Hashtbl.add t msg_id p;
            Some p
      in
      match partial with
      | None -> None
      | Some p ->
          (match p.parts.(index) with
          | Some _ -> () (* duplicate fragment *)
          | None ->
              p.parts.(index) <- Some (Bytes.sub datagram header_size plen);
              p.received <- p.received + 1);
          if p.received = p.count then begin
            Hashtbl.remove t msg_id;
            let total =
              Array.fold_left
                (fun acc part ->
                  match part with Some b -> acc + Bytes.length b | None -> acc)
                0 p.parts
            in
            let msg = Bytes.create total in
            let off = ref 0 in
            Array.iter
              (function
                | Some b ->
                    Bytes.blit b 0 msg !off (Bytes.length b);
                    off := !off + Bytes.length b
                | None -> assert false)
              p.parts;
            Some (msg_id, msg)
          end
          else None
    end
  end

let pending t = Hashtbl.length t
