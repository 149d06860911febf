(** E2 — deque cost under contention, by thread count.

    Simulated-time comparison (the machine has one core; see DESIGN.md §7)
    of the lock-based deque, the GC-dependent Snark, and the LFRC Snark.
    The metric is scheduler steps per completed operation: every shared
    memory access, spin and retry is one step, so contention shows up as
    extra steps — lock-holders make everyone spin, lock-free retries cost
    only their own re-execution. DCAS failure rates come from the
    substrate's [dcas.*] counters. *)

module Sched = Lfrc_sched.Sched
module Table = Lfrc_util.Table
module Opmix = Lfrc_workload.Opmix

let run_one (module D : Lfrc_structures.Container_intf.DEQUE) ~gc ~rc_mode
    ~threads ~ops_per_thread ~seed ~metrics ~tracer ~profile ~blame =
  let steps = ref 0 and dcas_fail = ref 0.0 and gc_pauses = ref 0 in
  let metrics = Common.counting metrics in
  let attempts = Common.count_since metrics Common.k_dcas_attempts
  and failures = Common.count_since metrics Common.k_dcas_failures in
  let body () =
    let heap = Lfrc_simmem.Heap.create ~name:"e2" () in
    let env =
      Lfrc_core.Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step
        ~gc_threshold:(if gc then 2048 else 0)
        ~rc_mode ~metrics ~tracer ~profile ~blame heap
    in
    if gc then Lfrc_simmem.Gc_trace.reset_history heap;
    let d = D.create env in
    let tids =
      List.init threads (fun thr ->
          Sched.spawn (fun () ->
              let h = D.register d in
              let stream =
                Opmix.stream Opmix.balanced_deque ~seed ~thread:thr
                  ops_per_thread
              in
              Array.iteri
                (fun i op ->
                  let v = Common.value_stream ~seed ~thread:thr i in
                  match op with
                  | Opmix.Push_left -> D.push_left h v
                  | Opmix.Push_right -> D.push_right h v
                  | Opmix.Pop_left -> ignore (D.pop_left h)
                  | Opmix.Pop_right -> ignore (D.pop_right h))
                stream;
              D.unregister h))
    in
    Sched.join tids;
    let attempts = attempts () in
    dcas_fail :=
      (if attempts = 0 then 0.0
       else 100.0 *. Float.of_int (failures ()) /. Float.of_int attempts);
    if gc then gc_pauses := List.length (Lfrc_simmem.Gc_trace.collections heap);
    D.destroy d
  in
  let outcome = Sched.run ~max_steps:200_000_000 (Lfrc_sched.Strategy.Random seed) body in
  steps := outcome.Sched.steps;
  (!steps, !dcas_fail, !gc_pauses)

(* Thread counts: powers of two up to the configured ceiling, plus the
   ceiling itself when it is not one. Default 8 -> [1;2;4;8]. *)
let thread_counts ceiling =
  let rec pows acc t = if t > ceiling then List.rev acc else pows (t :: acc) (t * 2) in
  let counts = pows [] 1 in
  if List.mem ceiling counts then counts else counts @ [ ceiling ]

let run (cfg : Scenario.config) =
  let ops_per_thread = cfg.Scenario.ops_per_thread in
  let { Lfrc_obs.Obs.metrics; tracer; profile; blame; _ } = Common.obs cfg in
  let table =
    Table.create ~title:"E2: deque contention (simulated steps per op)"
      ~columns:[ "impl"; "threads"; "steps/op"; "dcas fail %"; "gc runs" ]
  in
  List.iter
    (fun (label, impl, gc) ->
      List.iter
        (fun threads ->
          let steps, fail, gcs =
            run_one impl ~gc
              ~rc_mode:cfg.Scenario.rc_mode
              ~threads ~ops_per_thread ~seed:cfg.Scenario.seed ~metrics ~tracer
              ~profile ~blame
          in
          let total_ops = threads * ops_per_thread in
          Table.add_rowf table "%s|%d|%.1f|%.2f|%d" label threads
            (Float.of_int steps /. Float.of_int total_ops)
            fail gcs)
        (thread_counts cfg.Scenario.threads))
    (Common.deque_impls ());
  (* Three-way rc-mode ablation: the LFRC deques again at the top thread
     count under deferred-rc and wait-free (the base rows above are the
     eager leg when the config is default). These rows use a private
     throwaway metrics registry so the shared aggregate — which
     test_harness's deferred-rc and wait-free headlines compare across
     whole-config runs — stays pure to the configured mode. *)
  let top_threads =
    List.fold_left max 1 (thread_counts cfg.Scenario.threads)
  in
  List.iter
    (fun (label, impl, gc) ->
      if not gc && label <> "locked" then
        List.iter
          (fun (suffix, rc_mode) ->
            let steps, fail, gcs =
              run_one impl ~gc ~rc_mode ~threads:top_threads ~ops_per_thread
                ~seed:cfg.Scenario.seed
                ~metrics:(Lfrc_obs.Metrics.create ())
                ~tracer ~profile ~blame
            in
            let total_ops = top_threads * ops_per_thread in
            Table.add_rowf table "%s[%s]|%d|%.1f|%.2f|%d" label suffix
              top_threads
              (Float.of_int steps /. Float.of_int total_ops)
              fail gcs)
          [
            ("eager", Lfrc_core.Env.Eager);
            ( "deferred-rc",
              Lfrc_core.Env.Deferred_rc { epoch = Scenario.deferred_rc_epoch }
            );
            ( "wait-free",
              Lfrc_core.Env.Wait_free { weight = Scenario.wait_free_weight } );
          ])
    (Common.deque_impls ());
  Common.result ~table ~profile ~blame metrics
