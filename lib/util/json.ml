type t =
  | Int of int
  | Num of string
  | Bool of bool
  | String of string
  | Array of t list
  | Object of (string * t) list

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let quoted b s =
  Buffer.add_char b '"';
  escape b s;
  Buffer.add_char b '"'

let framed b l r item xs =
  Buffer.add_char b l;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      item x)
    xs;
  Buffer.add_char b r

let rec write b = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Num s -> Buffer.add_string b s
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | String s -> quoted b s
  | Array xs -> framed b '[' ']' (write b) xs
  | Object fields ->
      framed b '{' '}'
        (fun (k, v) ->
          quoted b k;
          Buffer.add_char b ':';
          write b v)
        fields

let to_string v =
  let b = Buffer.create 1024 in
  write b v;
  Buffer.contents b
