(** E5 — DCAS substrate ablation.

    The paper assumes a hardware DCAS (its Section 1 argues stronger
    primitives deserve hardware support). This experiment measures what
    the assumption is worth: the atomic reference, a striped-lock
    emulation, and the from-scratch lock-free software MCAS are compared
    (a) uncontended on one thread in wall-clock time, and (b) contended
    in the simulator, where the MCAS's helping protocol shows up as extra
    steps and failed installs.

    A separate unit test (test_mcas) demonstrates the deeper finding
    recorded in DESIGN.md: software MCAS *writes* descriptors into target
    cells, so it cannot replace hardware DCAS inside LFRC itself, whose
    load applies DCAS to potentially-freed memory. *)

module Sched = Lfrc_sched.Sched
module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Dcas = Lfrc_atomics.Dcas
module Table = Lfrc_util.Table

(* The substrate rows run each substrate on an environment of its own:
   [Env.create] wires it to the experiment's layers, and its span stack
   names the row that paid for a failed attempt. *)
let substrate_env impl ~metrics ~tracer ~profile ~blame =
  Lfrc_core.Env.create ~dcas_impl:impl ~metrics ~tracer ~profile ~blame
    (Heap.create ~name:"e5-substrate" ())

(* One span per op a row drives, named after the row, so an attempt that
   fails outside LFRC's own spans (a raw DCAS-increment, the locked
   deque's spin lock) is charged to the row. *)
let in_row_span env row f =
  Lfrc_core.Env.span_begin env row;
  f ();
  Lfrc_core.Env.span_end env row

let wall_row table impl ~iters ~metrics ~tracer ~profile ~blame =
  let d =
    Lfrc_core.Env.dcas (substrate_env impl ~metrics ~tracer ~profile ~blame)
  in
  let c0 = Cell.make 1 and c1 = Cell.make 2 in
  let ns =
    Common.time_per_op_ns ~iters (fun () ->
        ignore (Dcas.dcas d c0 c1 ~old0:1 ~old1:2 ~new0:1 ~new1:2))
  in
  Table.add_rowf table "%s|1|%.1f|-|-|-" (Dcas.impl_name d) ns

let contended_row table impl ~threads ~per_thread ~seed ~metrics ~tracer
    ~profile ~blame =
  let metrics = Common.counting metrics in
  let env = substrate_env impl ~metrics ~tracer ~profile ~blame in
  let d = Lfrc_core.Env.dcas env in
  let row = Lfrc_obs.Metrics.key (Dcas.impl_name d) in
  let attempts = Common.count_since metrics Common.k_dcas_attempts
  and failures = Common.count_since metrics Common.k_dcas_failures in
  let body () =
    let c0 = Cell.make 0 and c1 = Cell.make 0 in
    let tids =
      List.init threads (fun _ ->
          Sched.spawn (fun () ->
              for _ = 1 to per_thread do
                (* DCAS-increment both counters, retrying on interference. *)
                let rec attempt () =
                  let v0 = Dcas.read d c0 in
                  let v1 = Dcas.read d c1 in
                  if
                    not
                      (Dcas.dcas d c0 c1 ~old0:v0 ~old1:v1 ~new0:(v0 + 1)
                         ~new1:(v1 + 1))
                  then attempt ()
                in
                in_row_span env row attempt
              done))
    in
    Sched.join tids;
    assert (Dcas.read d c0 = threads * per_thread)
  in
  let outcome =
    Sched.run ~max_steps:200_000_000 (Lfrc_sched.Strategy.Random seed) body
  in
  let total_ops = threads * per_thread in
  let attempts = attempts () in
  Table.add_rowf table "%s|%d|%.1f|%.2f|%.1f|-" (Dcas.impl_name d) threads
    (Float.of_int outcome.Sched.steps /. Float.of_int total_ops)
    (Float.of_int attempts /. Float.of_int total_ops)
    (100.0 *. Float.of_int (failures ()) /. Float.of_int attempts)

(* How much count traffic LFRC itself puts on the substrate: threads
   overwrite one shared counted cell with freshly allocated nodes, so every
   operation pays an increment and (eventually) a decrement. The raw rows
   above cannot show deferred-rc coalescing — there is no count at the
   substrate level — so this row family runs the same workload in eager
   mode, with parked-delta coalescing, and with wait-free weighted
   counts, and reports single-word CAS attempts (the count updates —
   plus the unavoidable pointer-install CAS) per op. The wait-free row's
   count traffic is fetch-adds, which never retry; its CAS column is the
   pointer installs alone. *)
let lfrc_rc_row table ~label ~rc_mode ~threads ~per_thread ~seed ~metrics
    ~tracer ~profile ~blame =
  let layout = Lfrc_simmem.Layout.make ~name:"e5-node" ~n_ptrs:1 ~n_vals:1 in
  let metrics = Common.counting metrics in
  let attempts = Common.count_since metrics Common.k_cas_attempts
  and failures = Common.count_since metrics Common.k_cas_failures in
  let body () =
    let heap = Heap.create ~name:"e5-lfrc" () in
    let env =
      Lfrc_core.Env.create ~dcas_impl:Dcas.Atomic_step ~rc_mode ~metrics
        ~tracer ~profile ~blame heap
    in
    let root = Heap.root heap ~name:"e5-root" () in
    let tids =
      List.init threads (fun _ ->
          Sched.spawn (fun () ->
              for _ = 1 to per_thread do
                let p = Lfrc_core.Lfrc.alloc env layout in
                Lfrc_core.Lfrc.store env ~dst:root p;
                Lfrc_core.Lfrc.destroy env p
              done))
    in
    Sched.join tids;
    Lfrc_core.Lfrc.store env ~dst:root Heap.null;
    ignore (Lfrc_core.Lfrc.flush env);
    Lfrc_simmem.Report.assert_no_leaks heap
  in
  let outcome =
    Sched.run ~max_steps:200_000_000 (Lfrc_sched.Strategy.Random seed) body
  in
  let total_ops = threads * per_thread and attempts = attempts () in
  Table.add_rowf table "%s|%d|%.1f|%.2f|%.1f|0" label threads
    (Float.of_int outcome.Sched.steps /. Float.of_int total_ops)
    (Float.of_int attempts /. Float.of_int total_ops)
    (if attempts = 0 then 0.0
     else 100.0 *. Float.of_int (failures ()) /. Float.of_int attempts)

(* The ablation the substrate rows only hint at: the same mixed-op deque
   workload over the paper's Snark (which *needs* a double-word primitive
   — here hardware DCAS or the software MCAS emulation) and the
   Sundell–Tsigas port (single-word CAS by construction: its functor
   argument is OPS_CAS, so it cannot even name dcas), with the lock-based
   deque as the baseline. This is where "does the hardware owe us DCAS?"
   gets a direct answer: the price of not having it is either the MCAS
   emulation's helping traffic on every LFRC count update, or the
   algorithmic detour Sundell's marker nodes represent. *)
let deque_row table ~label (module D : Lfrc_structures.Deque_intf.DEQUE)
    ~dcas_impl ~threads ~per_thread ~seed ~metrics ~tracer ~profile ~blame
    ~notes =
  let leaked = ref 0 in
  let metrics = Common.counting metrics in
  let attempts = Common.count_since metrics Common.k_dcas_attempts
  and failures = Common.count_since metrics Common.k_dcas_failures in
  (* Every deque run carries the sanitizer and a lineage: the sanitizer
     vouches that a nonzero [leaked] column is the §2.1 cyclic-garbage
     concession and not a latent race/UAF, and the lineage turns each
     leaked object into a named witness — the call site that dropped the
     last reference it ever lost. *)
  let lineage = Lfrc_obs.Lineage.create ~ring:64 () in
  let sanitize = Lfrc_sanitize.Shadow.create () in
  let row = Lfrc_obs.Metrics.key label in
  let body () =
    let heap = Heap.create ~name:"e5-deque" () in
    let env =
      Lfrc_core.Env.create ~dcas_impl ~metrics ~tracer ~profile ~blame
        ~lineage ~sanitize heap
    in
    let t = D.create env in
    let tids =
      List.init threads (fun w ->
          Sched.spawn (fun () ->
              let h = D.register t in
              let rng = Lfrc_util.Rng.create ((seed * 131) + w) in
              for i = 1 to per_thread do
                in_row_span env row (fun () ->
                    match Lfrc_util.Rng.int rng 4 with
                    | 0 -> ignore (D.try_push_left h ((w * 1000) + i))
                    | 1 -> ignore (D.try_push_right h ((w * 1000) + i))
                    | 2 -> ignore (D.pop_left h)
                    | _ -> ignore (D.pop_right h))
              done;
              D.unregister h))
    in
    Sched.join tids;
    D.destroy t;
    (* Objects still live after teardown are the paper's §2.1 concession
       made measurable: garbage certain interleavings leave behind that
       plain reference counting never frees (the Snark rows show it; the
       Sundell port's marker protocol is cycle-free by construction and
       must report 0). Reported, not asserted — the concession is a
       finding of this ablation, not a harness failure. *)
    let leaked_ids = ref [] in
    Heap.iter_live heap (fun p -> leaked_ids := p :: !leaked_ids);
    leaked := List.length !leaked_ids;
    if !leaked_ids <> [] then begin
      let t = Lfrc_sanitize.Shadow.totals sanitize in
      notes :=
        Printf.sprintf
          "[E5 leak witness] %s @%d threads, seed %d: %d object%s leaked \
           (sanitizer: %d finding%s over %d checks)\n%s"
          label threads seed !leaked
          (if !leaked = 1 then "" else "s")
          (t.Lfrc_sanitize.Shadow.races + t.Lfrc_sanitize.Shadow.uaf
          + t.Lfrc_sanitize.Shadow.uar
          + t.Lfrc_sanitize.Shadow.aba_harmful)
          (let n =
             t.Lfrc_sanitize.Shadow.races + t.Lfrc_sanitize.Shadow.uaf
             + t.Lfrc_sanitize.Shadow.uar
             + t.Lfrc_sanitize.Shadow.aba_harmful
           in
           if n = 1 then "" else "s")
          t.Lfrc_sanitize.Shadow.checks
          (Lfrc_obs.Lineage.leak_report lineage
             ~addrs:(List.rev !leaked_ids))
        :: !notes
    end
  in
  let total_ops = threads * per_thread in
  match
    Sched.run ~max_steps:200_000_000 (Lfrc_sched.Strategy.Random seed) body
  with
  | outcome ->
      let attempts = attempts () in
      Table.add_rowf table "%s|%d|%.1f|%.2f|%.1f|%d" label threads
        (Float.of_int outcome.Sched.steps /. Float.of_int total_ops)
        (Float.of_int attempts /. Float.of_int total_ops)
        (if attempts = 0 then 0.0
         else 100.0 *. Float.of_int (failures ()) /. Float.of_int attempts)
        !leaked
  | exception _ ->
      (* A substrate that corrupts the run (the known case: software MCAS
         writes descriptors into cells LFRC may already have freed —
         DESIGN.md §8) still gets its row, as a verdict. *)
      Table.add_rowf table "%s|%d|unsafe|-|-|-" label threads

let run (cfg : Scenario.config) =
  let { Lfrc_obs.Obs.metrics; tracer; profile; blame; _ } = Common.obs cfg in
  let seed = cfg.Scenario.seed + 20 in
  let table =
    Table.create ~title:"E5: DCAS substrates (wall ns/op at 1 thread; sim steps/op contended)"
      ~columns:
        [ "substrate"; "threads"; "ns or steps /op"; "attempts/op"; "fail %"; "leaked" ]
  in
  List.iter
    (fun impl ->
      wall_row table impl ~iters:cfg.Scenario.iters ~metrics ~tracer ~profile
        ~blame)
    [ Dcas.Atomic_step; Dcas.Striped_lock; Dcas.Software_mcas ];
  let contended_threads =
    List.filter (fun t -> t <= max 2 cfg.Scenario.threads) [ 2; 4; 8 ]
  in
  List.iter
    (fun impl ->
      List.iter
        (fun threads ->
          contended_row table impl ~threads
            ~per_thread:cfg.Scenario.ops_per_thread ~seed ~metrics ~tracer
            ~profile ~blame)
        contended_threads)
    [ Dcas.Atomic_step; Dcas.Software_mcas ];
  (* The rc-mode ablation always shows all three modes side by side; the
     per-thread op count is clamped so the ablation stays a footnote next
     to the substrate comparison this experiment is really about. *)
  let per_thread = min 500 cfg.Scenario.ops_per_thread in
  List.iter
    (fun (label, rc_mode) ->
      List.iter
        (fun threads ->
          lfrc_rc_row table ~label ~rc_mode ~threads ~per_thread ~seed
            ~metrics ~tracer ~profile ~blame)
        contended_threads)
    [
      ("lfrc-rc eager", Lfrc_core.Env.Eager);
      ( "lfrc-rc deferred",
        Lfrc_core.Env.Deferred_rc { epoch = Scenario.deferred_rc_epoch } );
      ( "lfrc-rc wait-free",
        Lfrc_core.Env.Wait_free { weight = Scenario.wait_free_weight } );
    ];
  (* Deque head-to-head: what each primitive tier buys at the structure
     level. Same clamped op budget as the coalescing ablation. *)
  let module Snark_lfrc = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)
  in
  let module Sundell_lfrc =
    Lfrc_structures.Sundell_deque.Make (Lfrc_core.Lfrc_ops)
  in
  let deque_rows =
    [
      ( "snark hw-dcas",
        (module Snark_lfrc : Lfrc_structures.Deque_intf.DEQUE),
        Dcas.Atomic_step );
      ( "snark sw-mcas",
        (module Snark_lfrc : Lfrc_structures.Deque_intf.DEQUE),
        Dcas.Software_mcas );
      ( "sundell pure-cas",
        (module Sundell_lfrc : Lfrc_structures.Deque_intf.DEQUE),
        Dcas.Atomic_step );
      ( "locked",
        (module Lfrc_structures.Locked_deque : Lfrc_structures.Deque_intf.DEQUE),
        Dcas.Atomic_step );
    ]
  in
  let notes = ref [] in
  List.iter
    (fun (label, impl, dcas_impl) ->
      List.iter
        (fun threads ->
          deque_row table ~label impl ~dcas_impl ~threads ~per_thread ~seed
            ~metrics ~tracer ~profile ~blame ~notes)
        contended_threads)
    deque_rows;
  Common.result ~table ~profile ~blame ~notes:(List.rev !notes) metrics
