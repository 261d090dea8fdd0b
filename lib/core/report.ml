let section title =
  Printf.printf "\n=== %s ===\n" title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt

let slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' -> c
      | _ -> '_')
    (String.lowercase_ascii title)

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let write_csv ~title ~headers rows =
  match Sys.getenv_opt "MINOS_CSV_DIR" with
  | None -> ()
  | Some dir ->
      if Sys.file_exists dir && Sys.is_directory dir then begin
        let path = Filename.concat dir (slug title ^ ".csv") in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            List.iter
              (fun row ->
                output_string oc (String.concat "," (List.map csv_escape row));
                output_char oc '\n')
              (headers :: rows))
      end

let table ~title ~headers rows =
  write_csv ~title ~headers rows;
  let all = headers :: rows in
  let cols = List.length headers in
  let width i =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all
  in
  let widths = List.init cols width in
  let render row =
    row
    |> List.mapi (fun i cell -> Printf.sprintf "%-*s" (List.nth widths i) cell)
    |> String.concat "  "
  in
  Printf.printf "\n-- %s --\n" title;
  Printf.printf "%s\n" (render headers);
  Printf.printf "%s\n"
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Printf.printf "%s\n" (render row)) rows

let with_nan f v = if Float.is_nan v then "-" else f v

let f1 = with_nan (Printf.sprintf "%.1f")
let f2 = with_nan (Printf.sprintf "%.2f")
let f0 = with_nan (Printf.sprintf "%.0f")
let pct = with_nan (fun v -> Printf.sprintf "%.0f%%" (100.0 *. v))

let verdict claims =
  match List.find_opt (fun (ok, _) -> not ok) claims with
  | Some (_, msg) -> Error msg
  | None -> Ok ()

let ledger_claim label = function
  | Ok () -> (true, label)
  | Error gap -> (false, label ^ ": loss accounting broken: " ^ gap)
