(* Real-domain stress: the same structures driven by OCaml domains with
   the striped-lock DCAS substrate (the hardware-DCAS stand-in for true
   parallelism). The machine may have a single core; domains still
   interleave preemptively, exercising the real atomics.

   Each test checks value conservation and, for LFRC structures, that
   quiescent teardown leaves an empty heap with exact counts. The treiber
   and queue rows also run under deferred counts, where each domain parks
   its count deltas in a buffer of its own thread slot, and with the
   profiler and blame on, where each domain's op spans sit on the stack
   of its own slot, which no lock guards, and its retry chain in blame's
   slot of the same index. *)

module Heap = Lfrc_simmem.Heap
module Env = Lfrc_core.Env
module Report = Lfrc_simmem.Report

module Treiber = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)
module Msq = Lfrc_structures.Msqueue.Make (Lfrc_core.Lfrc_ops)
module Fixed = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)
module Locked = Lfrc_structures.Locked_deque

let checki = Alcotest.(check int)
let _checkb = Alcotest.(check bool)

let n_domains = 3
let ops_per_domain = 2_000

(* A profiler observing into its own metrics registry, and a blame
   registry beside it. *)
type profiled = {
  metrics : Lfrc_obs.Metrics.t;
  profile : Lfrc_obs.Profile.t;
  blame : Lfrc_obs.Blame.t;
}

let profiled () =
  let metrics = Lfrc_obs.Metrics.create () in
  {
    metrics;
    profile = Lfrc_obs.Profile.create ~metrics ();
    blame = Lfrc_obs.Blame.create ();
  }

let fresh ?(rc_mode = Env.Eager) ?prof name =
  let heap = Heap.create ~name () in
  let metrics = Option.map (fun p -> p.metrics) prof
  and profile = Option.map (fun p -> p.profile) prof
  and blame = Option.map (fun p -> p.blame) prof in
  ( Env.create ~dcas_impl:Lfrc_atomics.Dcas.Striped_lock ~rc_mode ?metrics
      ?profile ?blame heap,
    heap )

let deferred = Env.Deferred_rc { epoch = 64 }

(* Spans that a worker left open: a worker checks before it returns.
   The site reads ["?"] when no span layer is on. *)
let open_spans = Atomic.make 0

let check_no_open_span env =
  match Env.span_site env with
  | "(unattributed)" | "?" -> ()
  | _ -> Atomic.incr open_spans

(* With the profiler and blame on: no worker left a span open, every
   load on every domain closed a span the profiler aggregated, with its
   samples in the bucket histograms, and blame charged every failed
   CAS and DCAS once and left no retry chain open. *)
let check_profiled env { metrics; profile; blame } =
  checki "no worker left a span open" 0 (Atomic.get open_spans);
  Alcotest.(check string)
    "main thread has no span open" "(unattributed)" (Env.span_site env);
  let load =
    match
      List.find_opt
        (fun r -> r.Lfrc_obs.Profile.r_site = "lfrc.load")
        (Lfrc_obs.Profile.rows profile)
    with
    | Some r -> r
    | None -> Alcotest.fail "no lfrc.load row in the profile"
  in
  let s = Lfrc_obs.Metrics.snapshot metrics in
  checki "every load counted and profiled"
    (Lfrc_obs.Metrics.counter_value s "lfrc.load")
    load.Lfrc_obs.Profile.r_calls;
  List.iter
    (fun h ->
      match List.assoc_opt h s.Lfrc_obs.Metrics.samples with
      | Some xs ->
          checki (h ^ " holds one sample per load")
            load.Lfrc_obs.Profile.r_calls (Array.length xs)
      | None -> Alcotest.failf "histogram %s missing" h)
    [ "lfrc.load.retries"; "lfrc.load.steps"; "dcas.retries.lfrc.load" ];
  checki "every failed attempt blamed"
    (Lfrc_obs.Metrics.counter_value s "dcas.cas_failures"
    + Lfrc_obs.Metrics.counter_value s "dcas.dcas_failures")
    (Lfrc_obs.Blame.total_wasted blame);
  checki "no retry chain left open" 0 (Lfrc_obs.Blame.pending blame)

(* After teardown: land what the count mode holds back, then the heap
   must be empty with exact counts. *)
let check_quiescent env heap =
  ignore (Lfrc_core.Lfrc.flush env);
  Report.assert_no_leaks heap;
  checki "counts exact at quiescence" 0 (List.length (Report.check_rc_exact heap))

let sum_range a b = (a + b) * (b - a + 1) / 2

(* Each domain pushes a disjoint range and pops whatever it can; after
   joining, drain the rest: pushed sum must equal popped sum. *)
let treiber_domains ?prof rc_mode () =
  Atomic.set open_spans 0;
  let env, heap = fresh ~rc_mode ?prof "par-treiber" in
  let s = Treiber.create env in
  let popped = Atomic.make 0 in
  let worker d () =
    let h = Treiber.register s in
    let base = (d + 1) * 1_000_000 in
    for i = 1 to ops_per_domain do
      Treiber.push h (base + i);
      if i land 1 = 0 then
        match Treiber.pop h with
        | Some v -> ignore (Atomic.fetch_and_add popped v)
        | None -> ()
    done;
    Treiber.unregister h;
    check_no_open_span env
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let h0 = Treiber.register s in
  let rec drain () =
    match Treiber.pop h0 with
    | Some v ->
        ignore (Atomic.fetch_and_add popped v);
        drain ()
    | None -> ()
  in
  drain ();
  Treiber.unregister h0;
  let expected =
    List.init n_domains (fun d ->
        let base = (d + 1) * 1_000_000 in
        sum_range (base + 1) (base + ops_per_domain))
    |> List.fold_left ( + ) 0
  in
  checki "conservation" expected (Atomic.get popped);
  Treiber.destroy s;
  check_quiescent env heap;
  Option.iter (check_profiled env) prof

let msqueue_domains ?prof rc_mode () =
  Atomic.set open_spans 0;
  let env, heap = fresh ~rc_mode ?prof "par-msq" in
  let q = Msq.create env in
  let popped = Atomic.make 0 in
  let per_thread_order_ok = Atomic.make 1 in
  let producer d () =
    let h = Msq.register q in
    let base = (d + 1) * 1_000_000 in
    for i = 1 to ops_per_domain do
      Msq.enqueue h (base + i)
    done;
    Msq.unregister h;
    check_no_open_span env
  in
  let consumer () =
    let h = Msq.register q in
    (* FIFO per producer: values from one producer must arrive in
       ascending order. *)
    let last = Hashtbl.create 4 in
    for _ = 1 to ops_per_domain do
      match Msq.dequeue h with
      | Some v ->
          ignore (Atomic.fetch_and_add popped v);
          let producer_id = v / 1_000_000 in
          let prev = Option.value ~default:0 (Hashtbl.find_opt last producer_id) in
          if v <= prev then Atomic.set per_thread_order_ok 0;
          Hashtbl.replace last producer_id v
      | None -> Domain.cpu_relax ()
    done;
    Msq.unregister h;
    check_no_open_span env
  in
  let producers = List.init 2 (fun d -> Domain.spawn (producer d)) in
  let consumers = List.init 1 (fun _ -> Domain.spawn consumer) in
  List.iter Domain.join producers;
  List.iter Domain.join consumers;
  let h0 = Msq.register q in
  let rec drain () =
    match Msq.dequeue h0 with
    | Some v ->
        ignore (Atomic.fetch_and_add popped v);
        drain ()
    | None -> ()
  in
  drain ();
  Msq.unregister h0;
  let expected =
    sum_range 1_000_001 (1_000_000 + ops_per_domain)
    + sum_range 2_000_001 (2_000_000 + ops_per_domain)
  in
  checki "conservation" expected (Atomic.get popped);
  checki "per-producer FIFO held" 1 (Atomic.get per_thread_order_ok);
  Msq.destroy q;
  check_quiescent env heap;
  Option.iter (check_profiled env) prof

let deque_conservation (module D : Lfrc_structures.Container_intf.DEQUE) name
    ~leak_check =
  let env, heap = fresh name in
  let d = D.create env in
  let popped = Atomic.make 0 and pushed = Atomic.make 0 in
  let worker w () =
    let h = D.register d in
    let rng = Lfrc_util.Rng.create (w * 7919) in
    let base = (w + 1) * 1_000_000 in
    for i = 1 to ops_per_domain do
      match Lfrc_util.Rng.int rng 4 with
      | 0 ->
          D.push_left h (base + i);
          ignore (Atomic.fetch_and_add pushed (base + i))
      | 1 ->
          D.push_right h (base + i);
          ignore (Atomic.fetch_and_add pushed (base + i))
      | 2 -> (
          match D.pop_left h with
          | Some v -> ignore (Atomic.fetch_and_add popped v)
          | None -> ())
      | _ -> (
          match D.pop_right h with
          | Some v -> ignore (Atomic.fetch_and_add popped v)
          | None -> ())
    done;
    D.unregister h
  in
  let domains = List.init n_domains (fun w -> Domain.spawn (worker w)) in
  List.iter Domain.join domains;
  let h0 = D.register d in
  let rec drain () =
    match D.pop_left h0 with
    | Some v ->
        ignore (Atomic.fetch_and_add popped v);
        drain ()
    | None -> ()
  in
  drain ();
  D.unregister h0;
  checki (name ^ " conservation") (Atomic.get pushed) (Atomic.get popped);
  D.destroy d;
  if leak_check then begin
    Report.assert_no_leaks heap;
    checki (name ^ " counts exact") 0 (List.length (Report.check_rc_exact heap))
  end

let test_fixed_snark_domains () =
  deque_conservation (module Fixed) "par-fixed" ~leak_check:true

let test_locked_deque_domains () =
  deque_conservation (module Locked) "par-locked" ~leak_check:true

let test_lfrc_ops_domains () =
  (* Raw LFRC operations from several domains on shared cells: the weak
     invariant must leave exact counts at quiescence. *)
  let env, heap = fresh "par-lfrc" in
  let node = Lfrc_simmem.Layout.make ~name:"n" ~n_ptrs:1 ~n_vals:0 in
  let cells = Array.init 4 (fun _ -> Heap.root heap ()) in
  let worker w () =
    let rng = Lfrc_util.Rng.create (w * 104729) in
    Lfrc_core.Lfrc.with_locals env 2 (fun ls ->
        for _ = 1 to 1_000 do
          let c = Lfrc_util.Rng.pick rng cells in
          match Lfrc_util.Rng.int rng 4 with
          | 0 -> Lfrc_core.Lfrc.load env ~src:c ~dest:ls.(0)
          | 1 -> Lfrc_core.Lfrc.store env ~dst:c !(ls.(0))
          | 2 ->
              let p = Lfrc_core.Lfrc.alloc env node in
              Lfrc_core.Lfrc.store_alloc env ~dst:c p
          | _ ->
              ignore
                (Lfrc_core.Lfrc.cas env c ~old_ptr:!(ls.(0))
                   ~new_ptr:!(ls.(1)))
        done)
  in
  let domains = List.init n_domains (fun w -> Domain.spawn (worker w)) in
  List.iter Domain.join domains;
  checki "counts exact" 0 (List.length (Report.check_rc_exact heap));
  Array.iter (fun c -> Lfrc_core.Lfrc.store env ~dst:c Heap.null) cells;
  checki "no leaks" 0 (Heap.live_count heap)

(* A profiled row tests blame only if some CAS or DCAS failed, and the
   domains can interleave without one failing: run the row again, up to
   5 times, until a run blames a failed attempt. *)
let until_blamed row () =
  let rec go tries =
    let prof = profiled () in
    row prof;
    if Lfrc_obs.Blame.total_wasted prof.blame = 0 then
      if tries = 1 then
        Alcotest.fail "no run saw a failed CAS or DCAS: nothing was blamed"
      else go (tries - 1)
  in
  go 5

let () =
  Alcotest.run "parallel"
    [
      ( "domains",
        [
          Alcotest.test_case "treiber stack" `Slow (treiber_domains Env.Eager);
          Alcotest.test_case "michael-scott queue" `Slow
            (msqueue_domains Env.Eager);
          Alcotest.test_case "fixed snark deque" `Slow test_fixed_snark_domains;
          Alcotest.test_case "locked deque" `Slow test_locked_deque_domains;
          Alcotest.test_case "raw lfrc ops" `Slow test_lfrc_ops_domains;
          Alcotest.test_case "treiber stack, deferred rc" `Slow
            (treiber_domains deferred);
          Alcotest.test_case "michael-scott queue, deferred rc" `Slow
            (msqueue_domains deferred);
          Alcotest.test_case "treiber stack, profiled" `Slow
            (until_blamed (fun prof -> treiber_domains ~prof Env.Eager ()));
          Alcotest.test_case "michael-scott queue, profiled" `Slow
            (until_blamed (fun prof -> msqueue_domains ~prof Env.Eager ()));
        ] );
    ]
