type t = { cid : int; v : int Atomic.t; mutable is_frozen : bool }

exception Corruption of string

let encode v = v lsl 2
let decode raw = raw asr 2
let tag_of_raw raw = raw land 3

let next_id = Atomic.make 1

let make ?(frozen = false) v =
  {
    cid = Atomic.fetch_and_add next_id 1;
    v = Atomic.make (encode v);
    is_frozen = frozen;
  }

let id t = t.cid

let get t = decode (Atomic.get t.v)

let check_write t op =
  if t.is_frozen then
    raise (Corruption (Printf.sprintf "%s to freed memory (cell %d)" op t.cid))

let set t v =
  check_write t "write";
  Atomic.set t.v (encode v)

let cas t old_v new_v =
  let ok = Atomic.compare_and_set t.v (encode old_v) (encode new_v) in
  if ok then check_write t "successful CAS";
  ok

let fetch_and_add t d =
  check_write t "fetch-and-add";
  decode (Atomic.fetch_and_add t.v (encode d))

let freeze t =
  t.is_frozen <- true;
  Atomic.set t.v (encode Config.poison)

let thaw t v =
  t.is_frozen <- false;
  Atomic.set t.v (encode v)

let frozen t = t.is_frozen

let raw t = t.v
