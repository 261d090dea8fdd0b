(* Input mutation for the parser fuzzers (qcheck): a canned valid input
   with a few random edits applied, so the fuzzers explore the inputs a
   parser is most likely to mishandle — nearly valid ones. *)

(* One edit at a position folded into the string: delete, replace,
   duplicate a short run elsewhere, truncate, or insert. *)
let edit s (pos, kind, c) =
  let n = String.length s in
  let p = pos mod (n + 1) in
  match kind with
  | 0 when p < n -> String.sub s 0 p ^ String.sub s (p + 1) (n - p - 1)
  | 2 when p < n -> String.sub s 0 p ^ String.make 1 c ^ String.sub s (p + 1) (n - p - 1)
  | 3 ->
      let run = String.sub s p (min 8 (n - p)) in
      let q = pos * 7 mod (n + 1) in
      String.sub s 0 q ^ run ^ String.sub s q (n - q)
  | 4 -> String.sub s 0 p
  | _ -> String.sub s 0 p ^ String.make 1 c ^ String.sub s p (n - p)

(* [mutated ~alphabet bases]: one of [bases] with 1-6 edits whose
   inserted and replacing characters come from [alphabet]. *)
let mutated ~alphabet bases =
  let open QCheck.Gen in
  let chars = List.init (String.length alphabet) (String.get alphabet) in
  QCheck.make ~print:(Printf.sprintf "%S")
    ( oneofl bases >>= fun base ->
      list_size (int_range 1 6) (triple (int_bound 4096) (int_bound 4) (oneofl chars))
      >|= List.fold_left edit base )

(* [replaced ~alphabet bases]: one of [bases] with 1-6 bytes replaced by
   characters of [alphabet], its length kept.  Most of [mutated]'s edits
   change the length, and a fixed-record decoder rejects those at its
   length check; these reach the fields behind it. *)
let replaced ~alphabet bases =
  let open QCheck.Gen in
  let chars = List.init (String.length alphabet) (String.get alphabet) in
  QCheck.make ~print:(Printf.sprintf "%S")
    ( oneofl bases >>= fun base ->
      list_size (int_range 1 6) (pair (int_bound 4096) (oneofl chars)) >|= fun edits ->
      let b = Bytes.of_string base in
      if Bytes.length b > 0 then
        List.iter (fun (pos, c) -> Bytes.set b (pos mod Bytes.length b) c) edits;
      Bytes.to_string b )

(* Every byte value, for binary formats. *)
let bytes_alphabet = String.init 256 Char.chr
