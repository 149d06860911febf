(* The layer-cost ladder: each rung times one layer's public calls alone,
   in a single-thread tight loop, and reports ns and minor words per call.

   Rungs run where their layer runs in the workloads: [Atomic_step], the
   LFRC modes and the obs layers inside a one-thread [Sched.run] (so they
   include a [Sched.point] per memory access, itself a rung), the raw
   cells, the heap and the [Striped_lock] / [Software_mcas] substrates on
   the bare domain. *)

module Cell = Lfrc_simmem.Cell
module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout
module Sched = Lfrc_sched.Sched
module Dcas = Lfrc_atomics.Dcas
module Env = Lfrc_core.Env
module Lfrc = Lfrc_core.Lfrc
module Stack = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)

type rung = { name : string; ns : float; words : float }

let node = Layout.make ~name:"ladder-node" ~n_ptrs:2 ~n_vals:1

(* [run n] performs [n] calls; [prepare n], untimed, readies a batch.
   The batch size is doubled until one batch takes [target_ns]; the rung
   reports the median batch's ns per call and the minor words per call
   over every timed batch. *)
let measure ~batches ~target_ns ?(prepare = fun _ -> ()) run =
  let timed n =
    prepare n;
    let t0 = Span.now () in
    run n;
    Span.now () - t0
  in
  let n = ref 16 in
  while timed !n < target_ns && !n < 1 lsl 24 do
    n := 2 * !n
  done;
  let n = !n in
  let per_call = Array.make batches 0. and words = ref 0. in
  for b = 0 to batches - 1 do
    prepare n;
    let w0 = Gc.minor_words () in
    let t0 = Span.now () in
    run n;
    let t1 = Span.now () in
    words := !words +. (Gc.minor_words () -. w0);
    per_call.(b) <- float (t1 - t0) /. float n
  done;
  Array.sort compare per_call;
  (per_call.(batches / 2), !words /. float (batches * n))

let in_sim f =
  let r = ref None in
  ignore
    (Sched.run ~max_steps:max_int Lfrc_sched.Strategy.Round_robin (fun () ->
         r := Some (f ())));
  Option.get !r

let env ?(rc_mode = Env.Eager) ?metrics ?profile ?blame ?lineage ?sanitize () =
  Env.create ~dcas_impl:Dcas.Atomic_step ~rc_mode ?metrics ?profile ?blame
    ?lineage ?sanitize
    (Heap.create ~name:"ladder" ())

(* A root cell holding one object, and a local holding a counted
   reference to it. *)
let rooted env =
  let cell = Heap.root (Env.heap env) () in
  Lfrc.store_alloc env ~dst:cell (Lfrc.alloc env node);
  let local = ref Heap.null in
  Lfrc.load env ~src:cell ~dest:local;
  (cell, local)

let lfrc_load env =
  let cell, local = rooted env in
  fun n ->
    for _ = 1 to n do
      Lfrc.load env ~src:cell ~dest:local
    done

let lfrc_store env =
  let cell, local = rooted env in
  fun n ->
    for _ = 1 to n do
      Lfrc.store env ~dst:cell !local
    done

(* Each timed destroy drops one of [n] extra references taken untimed,
   so it exercises the count decrement, not the free. *)
let lfrc_destroy env =
  let _, local = rooted env in
  let held = ref [||] and tmp = ref Heap.null in
  let prepare n =
    if Array.length !held < n then held := Array.make n Heap.null;
    for i = 0 to n - 1 do
      Lfrc.copy env ~dest:tmp !local;
      !held.(i) <- !tmp;
      tmp := Heap.null
    done
  in
  let run n =
    let h = !held in
    for i = 0 to n - 1 do
      Lfrc.destroy env h.(i)
    done
  in
  (prepare, run)

let run ~quick =
  let batches = if quick then 3 else 11 in
  let target_ns = if quick then 100_000 else 3_000_000 in
  let measure ?prepare f = measure ~batches ~target_ns ?prepare f in
  let sim_rung name mk = (name, fun () -> in_sim (fun () -> measure (mk ()))) in
  let bare_rung name mk = (name, fun () -> measure (mk ())) in
  let impls =
    [
      ("atomic_step", Dcas.Atomic_step);
      ("striped_lock", Dcas.Striped_lock);
      ("software_mcas", Dcas.Software_mcas);
    ]
  in
  let substrate name impl mk =
    (if impl = Dcas.Atomic_step then sim_rung else bare_rung) name (fun () ->
        mk (Dcas.create impl))
  in
  let modes =
    [
      ("eager", Env.Eager);
      ("deferred", Env.Deferred_rc { epoch = 64 });
      ("wait_free", Env.Wait_free { weight = 64 });
    ]
  in
  let rungs =
    [
      bare_rung "cell_get" (fun () ->
          let c = Cell.make 0 in
          fun n ->
            for _ = 1 to n do
              ignore (Sys.opaque_identity (Cell.get c))
            done);
      bare_rung "cell_cas" (fun () ->
          let c = Cell.make 0 in
          fun n ->
            for _ = 1 to n do
              ignore (Sys.opaque_identity (Cell.cas c 0 0))
            done);
      sim_rung "sched_point" (fun () n ->
          for _ = 1 to n do
            Sched.point ()
          done);
    ]
    @ List.map
        (fun (s, impl) ->
          substrate ("dcas_cas." ^ s) impl (fun d ->
              let c = Cell.make 0 in
              fun n ->
                for _ = 1 to n do
                  ignore (Sys.opaque_identity (Dcas.cas d c 0 0))
                done))
        impls
    @ List.map
        (fun (s, impl) ->
          substrate ("dcas_dcas." ^ s) impl (fun d ->
              let c0 = Cell.make 0 and c1 = Cell.make 0 in
              fun n ->
                for _ = 1 to n do
                  ignore
                    (Sys.opaque_identity
                       (Dcas.dcas d c0 c1 ~old0:0 ~old1:0 ~new0:0 ~new1:0))
                done))
        impls
    @ [
        bare_rung "heap_alloc_free" (fun () ->
            let h = Heap.create ~name:"ladder" () in
            fun n ->
              for _ = 1 to n do
                Heap.free h (Heap.alloc h node)
              done);
      ]
    @ List.concat_map
        (fun (m, rc_mode) ->
          [
            sim_rung ("lfrc_load." ^ m) (fun () -> lfrc_load (env ~rc_mode ()));
            sim_rung ("lfrc_store." ^ m) (fun () -> lfrc_store (env ~rc_mode ()));
            ( "lfrc_destroy." ^ m,
              fun () ->
                in_sim (fun () ->
                    let prepare, run = lfrc_destroy (env ~rc_mode ()) in
                    measure ~prepare run) );
          ])
        modes
    @ [
        sim_rung "obs_metrics_load" (fun () ->
            lfrc_load (env ~metrics:(Lfrc_obs.Metrics.create ()) ()));
        sim_rung "obs_profile_load" (fun () ->
            lfrc_load (env ~profile:(Lfrc_obs.Profile.create ()) ()));
        sim_rung "obs_blame_load" (fun () ->
            lfrc_load (env ~blame:(Lfrc_obs.Blame.create ()) ()));
        sim_rung "obs_lineage_load" (fun () ->
            lfrc_load (env ~lineage:(Lfrc_obs.Lineage.create ~ring:64 ()) ()));
        sim_rung "obs_sanitize_load" (fun () ->
            lfrc_load (env ~sanitize:(Lfrc_sanitize.Shadow.create ()) ()));
        sim_rung "treiber_push_pop" (fun () ->
            let s = Stack.create (env ()) in
            let h = Stack.register s in
            fun n ->
              for i = 1 to n do
                Stack.push h i;
                ignore (Sys.opaque_identity (Stack.pop h))
              done);
      ]
  in
  List.map
    (fun (name, f) ->
      Gc.full_major ();
      let ns, words = f () in
      { name; ns; words })
    rungs

(* "dcas_cas.striped_lock" -> "ladder.dcas_cas_<what>.striped_lock" *)
let metric_name rung what =
  match String.index_opt rung '.' with
  | None -> Printf.sprintf "ladder.%s_%s" rung what
  | Some i ->
      Printf.sprintf "ladder.%s_%s%s" (String.sub rung 0 i) what
        (String.sub rung i (String.length rung - i))
