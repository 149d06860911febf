let now_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  (r, t1 - t0)

let time_per_op_ns ~iters f =
  for _ = 1 to min 1000 (iters / 10) do
    f ()
  done;
  let t0 = now_ns () in
  for _ = 1 to iters do
    f ()
  done;
  let t1 = now_ns () in
  Float.of_int (t1 - t0) /. Float.of_int iters
