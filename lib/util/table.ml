type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let add_rowf t fmt =
  Printf.ksprintf
    (fun s -> add_row t (String.split_on_char '|' s |> List.map String.trim))
    fmt

let widths t =
  let all = t.columns :: List.rev t.rows in
  let n = List.length t.columns in
  let w = Array.make n 0 in
  let measure row =
    List.iteri (fun i cell -> if i < n then w.(i) <- max w.(i) (String.length cell)) row
  in
  List.iter measure all;
  w

let render t =
  let w = widths t in
  let buf = Buffer.create 256 in
  let pad i s = s ^ String.make (w.(i) - String.length s) ' ' in
  let line row =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i cell ->
        Buffer.add_string buf (pad i cell);
        Buffer.add_string buf " | ")
      row;
    (* Drop the trailing space of the last separator. *)
    let len = Buffer.length buf in
    Buffer.truncate buf (len - 1);
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  line t.columns;
  let rule = Array.fold_left (fun acc x -> acc + x + 3) 1 w in
  Buffer.add_string buf (String.make rule '-');
  Buffer.add_char buf '\n';
  List.iter line (List.rev t.rows);
  Buffer.contents buf

let csv t =
  let buf = Buffer.create 256 in
  let line row = Buffer.add_string buf (String.concat "," row ^ "\n") in
  line t.columns;
  List.iter line (List.rev t.rows);
  Buffer.contents buf
