type t = { n_keys : int; starts : int array }

type weight_error =
  | All_zero
  | Negative of int
  | Not_finite of int
  | Too_few_buckets of { buckets : int; servers : int }
  | Too_many_buckets of { buckets : int; n_keys : int }

exception Bad_weights of weight_error

let weight_error_to_string = function
  | All_zero -> "all probe weights are zero"
  | Negative b -> "negative weight in bucket " ^ string_of_int b
  | Not_finite b -> "non-finite weight in bucket " ^ string_of_int b
  | Too_few_buckets { buckets; servers } ->
      "only " ^ string_of_int buckets ^ " buckets for " ^ string_of_int servers
      ^ " servers (need at least one per server)"
  | Too_many_buckets { buckets; n_keys } ->
      string_of_int buckets ^ " buckets exceed the " ^ string_of_int n_keys
      ^ "-key space"

let validate_starts ~servers ~n_keys starts =
  if Array.length starts <> servers then
    invalid_arg "Range_map: starts length must equal servers";
  if starts.(0) <> 0 then invalid_arg "Range_map: starts must begin at 0";
  for i = 1 to servers - 1 do
    if starts.(i) <= starts.(i - 1) || starts.(i) >= n_keys then
      invalid_arg "Range_map: starts must be strictly increasing below n_keys"
  done

let create ?starts ~servers ~n_keys () =
  if servers < 1 then invalid_arg "Range_map.create: servers must be >= 1";
  if n_keys < servers then invalid_arg "Range_map.create: n_keys < servers";
  let starts =
    match starts with
    | Some s ->
        validate_starts ~servers ~n_keys s;
        Array.copy s
    | None -> Array.init servers (fun i -> i * n_keys / servers)
  in
  { n_keys; starts }


let lookup t key_id =
  if key_id < 0 || key_id >= t.n_keys then
    invalid_arg "Range_map.lookup: key id out of range";
  (* Greatest i with starts.(i) <= key_id. *)
  let lo = ref 0 and hi = ref (Array.length t.starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.starts.(mid) <= key_id then lo := mid else hi := mid - 1
  done;
  !lo

let check_weights t ~weights =
  let n_servers = Array.length t.starts in
  let buckets = Array.length weights in
  if buckets < n_servers then
    Error (Too_few_buckets { buckets; servers = n_servers })
  else if buckets > t.n_keys then
    Error (Too_many_buckets { buckets; n_keys = t.n_keys })
  else begin
    let err = ref None in
    let total = ref 0.0 in
    for b = buckets - 1 downto 0 do
      let w = weights.(b) in
      if not (Float.is_finite w) then err := Some (Not_finite b)
      else if w < 0.0 then err := Some (Negative b);
      total := !total +. w
    done;
    match !err with
    | Some e -> Error e
    | None -> if !total <= 0.0 then Error All_zero else Ok ()
  end

let rebalance t ~weights =
  (match check_weights t ~weights with
  | Ok () -> ()
  | Error e -> raise (Bad_weights e));
  let n_servers = Array.length t.starts in
  let buckets = Array.length weights in
  let total = ref 0.0 in
  Array.iter (fun w -> total := !total +. w) weights;
  begin
    (* Walk the buckets, cutting a new range once the running weight
       passes the next multiple of total/servers.  A cut at bucket
       boundary [b + 1] is only legal when it advances past the previous
       start and leaves every remaining server at least one key, so the
       result is always a valid strictly-increasing starts array. *)
    let target = !total /. float_of_int n_servers in
    let starts = Array.make n_servers 0 in
    let next = ref 1 in
    let acc = ref 0.0 in
    for b = 0 to buckets - 1 do
      acc := !acc +. weights.(b);
      if !next < n_servers && !acc >= target *. float_of_int !next then begin
        let cut = (b + 1) * t.n_keys / buckets in
        if cut > starts.(!next - 1) && cut <= t.n_keys - (n_servers - !next) then begin
          starts.(!next) <- cut;
          incr next
        end
      end
    done;
    (* Degenerate tail (e.g. all weight in the last buckets): any server
       still without a cut takes the smallest remaining range. *)
    while !next < n_servers do
      let min_start = starts.(!next - 1) + 1 in
      let even = !next * t.n_keys / n_servers in
      starts.(!next) <- (if even > min_start then even else min_start);
      incr next
    done;
    validate_starts ~servers:n_servers ~n_keys:t.n_keys starts;
    { t with starts }
  end
