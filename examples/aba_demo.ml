(* The ABA problem, live — and how LFRC removes it (paper Section 1).

   A Treiber stack with *eager manual free* (pop frees its node
   immediately) is the textbook ABA victim: between a pop's read of the
   top node and its CAS, the node can be freed, its id recycled by the
   allocator for a new push, and land back on top — the CAS then succeeds
   against the *wrong* next pointer, corrupting the stack.

   The simulated heap recycles ids exactly like a real allocator reuses
   addresses, and its liveness checks turn the resulting use-after-free /
   double-free into exceptions. This program drives the broken stack
   under randomized schedules until the corruption fires, then runs the
   LFRC stack through the same schedules: the counted local reference
   makes recycling impossible while any thread still holds the pointer,
   so the ABA window simply does not exist.

   Run with: dune exec examples/aba_demo.exe *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Dcas = Lfrc_atomics.Dcas
module Env = Lfrc_core.Env
module Sched = Lfrc_sched.Sched

let node = Lfrc_structures.Treiber.node_layout

(* Treiber stack with immediate free on pop: correct single-threaded,
   broken concurrently. This is what the paper's Section 1 says you
   cannot write without GC, a free-list, or a scheme like LFRC. *)
module Broken_stack = struct
  type t = { heap : Heap.t; d : Dcas.t; top : Cell.t }

  let create env =
    let heap = Env.heap env in
    { heap; d = Env.dcas env; top = Heap.root heap ~name:"broken-top" () }

  let push t v =
    let nd = Heap.alloc t.heap node in
    Dcas.write t.d (Heap.val_cell t.heap nd 0) v;
    let rec go () =
      let top = Dcas.read t.d t.top in
      Dcas.write t.d (Heap.ptr_cell t.heap nd 0) top;
      if not (Dcas.cas t.d t.top top nd) then go ()
    in
    go ()

  let pop t =
    let rec go () =
      let top = Dcas.read t.d t.top in
      if top = Heap.null then None
      else begin
        (* Unprotected dereference: [top] may already be freed. *)
        let next = Dcas.read t.d (Heap.ptr_cell t.heap top 0) in
        if Dcas.cas t.d t.top top next then begin
          let v = Dcas.read t.d (Heap.val_cell t.heap top 0) in
          Heap.free t.heap top (* eager manual free: the ABA source *);
          Some v
        end
        else go ()
      end
    in
    go ()
end

let workload push pop seed =
  let tids =
    List.init 3 (fun t ->
        Sched.spawn (fun () ->
            let rng = Lfrc_util.Rng.create (seed + (t * 1009)) in
            for i = 1 to 60 do
              if Lfrc_util.Rng.bool rng then push ((t * 1000) + i)
              else ignore (pop ())
            done))
  in
  Sched.join tids

let find_broken_failure () =
  let rec hunt seed =
    if seed > 200_000 then None
    else begin
      let outcome =
        try
          ignore
            (Sched.run (Lfrc_sched.Strategy.Random seed) (fun () ->
                 let heap = Heap.create ~name:"aba-broken" () in
                 let env =
                   Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap
                 in
                 let s = Broken_stack.create env in
                 workload (Broken_stack.push s) (fun () -> Broken_stack.pop s) seed));
          None
        with
        | Sched.Thread_failure { exn; _ } -> Some (seed, exn)
        | (Heap.Use_after_free _ | Heap.Double_free _ | Cell.Corruption _) as e
          ->
            Some (seed, e)
      in
      match outcome with Some r -> Some r | None -> hunt (seed + 1)
    end
  in
  hunt 0

module Safe_stack = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)

let () =
  print_endline "--- Treiber stack with eager manual free (no protection) ---";
  (match find_broken_failure () with
  | Some (seed, exn) ->
      Printf.printf
        "seed %d: memory corruption detected, as theory predicts:\n  %s\n"
        seed (Printexc.to_string exn)
  | None -> failwith "expected the unprotected stack to corrupt itself");

  print_endline "\n--- the same workload on the LFRC Treiber stack ---";
  for seed = 0 to 2_000 do
    ignore
      (Sched.run (Lfrc_sched.Strategy.Random seed) (fun () ->
           let heap = Heap.create ~name:"aba-safe" () in
           let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
           let s = Safe_stack.create env in
           let tids =
             List.init 3 (fun t ->
                 Sched.spawn (fun () ->
                     let h = Safe_stack.register s in
                     let rng = Lfrc_util.Rng.create (seed + (t * 1009)) in
                     for i = 1 to 60 do
                       if Lfrc_util.Rng.bool rng then
                         Safe_stack.push h ((t * 1000) + i)
                       else ignore (Safe_stack.pop h)
                     done;
                     Safe_stack.unregister h))
           in
           Sched.join tids))
  done;
  print_endline "2001 randomized schedules: no corruption, no leak, no ABA.";
  print_endline
    "LFRC's counted local references make the recycle-while-held window\n\
     impossible — the paper's Section 1 argument, demonstrated.";
  print_endline "aba_demo OK"
