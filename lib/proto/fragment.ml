let fragment_magic = 0xF7

let header_size = 1 + 8 + 2 + 2 + 2

let max_fragment_payload = Netsim.Frame.max_udp_payload - header_size

let fragments_for size =
  if size < 0 then invalid_arg "Fragment.fragments_for: negative size";
  if size = 0 then 1 else (size + max_fragment_payload - 1) / max_fragment_payload

let write_fields b ~off ~index ~count ~len =
  Bytes.set_uint8 b off fragment_magic;
  Bytes.set_uint16_le b (off + 9) index;
  Bytes.set_uint16_le b (off + 11) count;
  Bytes.set_uint16_le b (off + 13) len

let write_header b ~off ~msg_id ~index ~count ~len =
  write_fields b ~off ~index ~count ~len;
  Bytes.set_int64_le b (off + 1) msg_id

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
   sent by then.  The id is copied as bytes: an [int64] argument would be
   boxed. *)
let frame_in_place buf ~id ~id_off ~total ~index =
  let count = checked_count total in
  let off = index * max_fragment_payload in
  let len = min max_fragment_payload (total - off) in
  write_fields buf ~off ~index ~count ~len;
  Bytes.blit id id_off buf (off + 1) 8;
  header_size + len

(* A partial holds the fragments it has received, in arrival order, and
   one bit per index for duplicates: what a first fragment pins is its
   own payload and a bitmap of at most 8 KB, not a slot for every
   fragment its count claims. *)
type partial = {
  count : int;
  seen : Bytes.t; (* bit [i]: fragment [i] received *)
  mutable indices : int array;
  mutable parts : bytes array;
  mutable received : int;
  born : int; (* admission order, so the oldest partial goes first *)
}

(* A sender whose messages never complete (first fragments only) would
   otherwise grow the table without bound; at the bound the oldest
   partial is discarded to admit a new one. *)
let max_pending = 64

type reassembler = { partials : (int64, partial) Hashtbl.t; mutable admitted : int }

let create_reassembler () = { partials = Hashtbl.create 16; admitted = 0 }

(* Linear in [max_pending], and only reached when a new partial meets a
   full table. *)
let discard_oldest t =
  let oldest =
    Hashtbl.fold
      (fun id p acc ->
        match acc with Some (_, born) when born <= p.born -> acc | _ -> Some (id, p.born))
      t.partials None
  in
  Option.iter (fun (id, _) -> Hashtbl.remove t.partials id) oldest

(* The payload length of a well-formed fragment of [len] bytes in [b], or
   -1. *)
let payload_length b ~len =
  if len < header_size || Bytes.get_uint8 b 0 <> fragment_magic then -1
  else
    let index = Bytes.get_uint16_le b 9 and count = Bytes.get_uint16_le b 11 in
    let plen = Bytes.get_uint16_le b 13 in
    if count = 0 || index >= count || len < header_size + plen then -1 else plen

(* A single-fragment datagram whose id names a partial conflicts with it
   and is dropped.  Only reached while a partial is pending: the id is
   boxed to look it up. *)
let[@cold] conflicts t b = Hashtbl.mem t.partials (Bytes.get_int64_le b 1)

let whole t b ~len =
  let plen = payload_length b ~len in
  if plen < 0 || Bytes.get_uint16_le b 11 <> 1 then -1
  else if Hashtbl.length t.partials > 0 && conflicts t b then -1
  else plen

let add_part p index part =
  let n = p.received in
  if n = Array.length p.parts then begin
    let grow a fill =
      let b = Array.make (min p.count (2 * n)) fill in
      Array.blit a 0 b 0 n;
      b
    in
    p.indices <- grow p.indices 0;
    p.parts <- grow p.parts Bytes.empty
  end;
  p.indices.(n) <- index;
  p.parts.(n) <- part;
  p.received <- n + 1

let assemble p =
  let ordered = Array.make p.count Bytes.empty in
  Array.iteri (fun k index -> ordered.(index) <- p.parts.(k)) p.indices;
  Bytes.concat Bytes.empty (Array.to_list ordered)

let offer t datagram =
  let len = Bytes.length datagram in
  let plen = whole t datagram ~len in
  if plen >= 0 then
    (* A whole message in one datagram: nothing to reassemble. *)
    Some (Bytes.get_int64_le datagram 1, Bytes.sub datagram header_size plen)
  else
    let plen = payload_length datagram ~len in
    if plen < 0 then None
    else begin
      let msg_id = Bytes.get_int64_le datagram 1 in
      let index = Bytes.get_uint16_le datagram 9 in
      let count = Bytes.get_uint16_le datagram 11 in
      let partial =
        match Hashtbl.find_opt t.partials msg_id with
        | Some p when p.count = count -> Some p
        | Some _ -> None (* conflicting fragment count: drop *)
        | None ->
            if Hashtbl.length t.partials >= max_pending then discard_oldest t;
            let p =
              {
                count;
                seen = Bytes.make ((count + 7) / 8) '\000';
                indices = [| 0 |];
                parts = [| Bytes.empty |];
                received = 0;
                born = t.admitted;
              }
            in
            t.admitted <- t.admitted + 1;
            Hashtbl.add t.partials msg_id p;
            Some p
      in
      match partial with
      | None -> None
      | Some p ->
          let byte = Bytes.get_uint8 p.seen (index / 8) and bit = 1 lsl (index mod 8) in
          if byte land bit = 0 then begin
            (* else a duplicate fragment *)
            Bytes.set_uint8 p.seen (index / 8) (byte lor bit);
            add_part p index (Bytes.sub datagram header_size plen)
          end;
          if p.received = p.count then begin
            Hashtbl.remove t.partials msg_id;
            Some (msg_id, assemble p)
          end
          else None
    end

let pending t = Hashtbl.length t.partials
