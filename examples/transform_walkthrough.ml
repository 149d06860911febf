(* The paper's six-step methodology, narrated on a real structure.

   Section 3 of the paper lists six steps for transforming a
   GC-dependent implementation into a GC-independent one. In this
   repository the transformation is a functor application: the Treiber
   stack below is ONE piece of code over the paper's pointer-operation
   interface, instantiated twice. This program walks through the steps,
   runs both instantiations side by side, and shows where each step lives
   in the code base.

   Run with: dune exec examples/transform_walkthrough.exe *)

module Heap = Lfrc_simmem.Heap
module Env = Lfrc_core.Env

module Gc_stack = Lfrc_structures.Treiber.Make (Lfrc_core.Gc_ops)
module Lfrc_stack = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)

let step n title detail =
  Printf.printf "\nStep %d — %s\n  %s\n" n title detail

let () =
  print_endline "The LFRC methodology (paper Section 3), step by step:";

  step 1 "Add reference counts"
    "Every heap object carries an rc cell (cell 0) set to 1 by the\n\
    \  allocator — lib/simmem/layout.ml and Heap.alloc.";
  step 2 "Provide LFRCDestroy"
    "Lfrc.destroy decrements, and at zero destroys the object's pointer\n\
    \  slots and frees it — lib/lfrc/lfrc.ml (three policies).";
  step 3 "Ensure no garbage cycles"
    "The deques install null instead of sentinel self-pointers, exactly\n\
    \  the paper's own modification; test_cycle shows what happens\n\
    \  otherwise, and lib/cycle is the paper's backup-tracer extension.";
  step 4 "Produce correctly-typed LFRC operations"
    "The operation set is the module type Ops_intf.OPS_DCAS; Lfrc_ops\n\
    \  implements it for every layout (ids make pointers uniform).";
  step 5 "Replace pointer operations (Table 1)"
    "Structures are functors over OPS, so the replacement is the functor\n\
    \  argument: Treiber.Make(Gc_ops) vs Treiber.Make(Lfrc_ops). The type\n\
    \  checker forbids stray raw pointer accesses.";
  step 6 "Manage local pointer variables"
    "OPS.declare/retire bracket thread locals: Gc_ops registers them in a\n\
    \  shadow-stack frame for the tracer; Lfrc_ops counts them and\n\
    \  retire performs the paper's LFRCDestroy-on-scope-exit.";

  (* Run the same workload through both instantiations. *)
  let workload (type t h) name
      (module S : Lfrc_structures.Container_intf.STACK
        with type t = t
         and type handle = h) heap env =
    let s = S.create env in
    let hd = S.register s in
    for i = 1 to 1_000 do
      S.push hd i
    done;
    for _ = 1 to 600 do
      ignore (S.pop hd)
    done;
    let mid = Heap.live_count heap in
    for _ = 1 to 400 do
      ignore (S.pop hd)
    done;
    S.unregister hd;
    S.destroy s;
    Printf.printf "  %-12s live after 600 pops: %4d   after all pops: %4d\n"
      name mid (Heap.live_count heap)
  in

  print_endline "\nRunning 1000 pushes + 1000 pops through both worlds:";
  let heap_gc = Heap.create ~name:"walk-gc" () in
  let env_gc = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap_gc in
  workload "GC-dependent" (module Gc_stack) heap_gc env_gc;

  let heap_rc = Heap.create ~name:"walk-lfrc" () in
  let env_rc = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap_rc in
  workload "LFRC" (module Lfrc_stack) heap_rc env_rc;

  Printf.printf
    "\nGC-dependent left %d objects for a collector to find;\n\
     LFRC freed every node at its last pointer's death.\n"
    (Heap.live_count heap_gc);
  assert (Heap.live_count heap_rc = 0);
  assert (Heap.live_count heap_gc > 0);

  (* And the collector the GC world depends on: *)
  let c = Lfrc_simmem.Gc_trace.collect heap_gc in
  Printf.printf
    "Running the tracing collector for the GC world: freed %d in %.0f us\n"
    (c.Lfrc_simmem.Gc_trace.live_before - c.Lfrc_simmem.Gc_trace.live_after)
    (Float.of_int c.Lfrc_simmem.Gc_trace.pause_ns /. 1e3);
  assert (Heap.live_count heap_gc = 0);
  print_endline "\ntransform_walkthrough OK"
