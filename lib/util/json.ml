type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

(* Single mutable cursor over the input; the parser is strict (no
   trailing garbage) and recursive-descent, one function per grammar
   production. *)
type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    &&
    match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c.pos (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then (
    c.pos <- c.pos + n;
    value)
  else fail c.pos (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | None -> fail c.pos "unterminated escape"
        | Some e ->
            c.pos <- c.pos + 1;
            (match e with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                if c.pos + 4 > String.length c.s then
                  fail c.pos "truncated \\u escape";
                let hex = String.sub c.s c.pos 4 in
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some n -> n
                  | None -> fail c.pos "bad \\u escape"
                in
                c.pos <- c.pos + 4;
                (* Encode the code unit as UTF-8; surrogate pairs are not
                   recombined (the writers never emit them). *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then (
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
                else (
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
            | _ -> fail (c.pos - 1) "bad escape");
            go ())
    | Some ch ->
        c.pos <- c.pos + 1;
        Buffer.add_char b ch;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.s && is_num_char c.s.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.s start (c.pos - start) in
  match float_of_string_opt tok with
  | Some f -> f
  | None -> fail start (Printf.sprintf "bad number %S" tok)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '{' -> parse_obj c
  | Some '[' -> parse_list c
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c.pos (Printf.sprintf "unexpected %C" ch)

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then (
    c.pos <- c.pos + 1;
    Obj [])
  else
    let rec fields acc =
      skip_ws c;
      let key = parse_string c in
      skip_ws c;
      expect c ':';
      let v = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' ->
          c.pos <- c.pos + 1;
          fields ((key, v) :: acc)
      | Some '}' ->
          c.pos <- c.pos + 1;
          Obj (List.rev ((key, v) :: acc))
      | _ -> fail c.pos "expected ',' or '}'"
    in
    fields []

and parse_list c =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then (
    c.pos <- c.pos + 1;
    List [])
  else
    let rec elems acc =
      let v = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' ->
          c.pos <- c.pos + 1;
          elems (v :: acc)
      | Some ']' ->
          c.pos <- c.pos + 1;
          List (List.rev (v :: acc))
      | _ -> fail c.pos "expected ',' or ']'"
    in
    elems []

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos < String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
      else Ok v
  | exception Fail (pos, msg) ->
      Error (Printf.sprintf "%s at offset %d" msg pos)

let parse_file file =
  match In_channel.with_open_text file In_channel.input_all with
  | contents -> parse contents
  | exception Sys_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let path keys v =
  List.fold_left
    (fun acc key -> Option.bind acc (member key))
    (Some v) keys

let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let obj_fields = function Obj fields -> fields | _ -> []

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
