include Env_base

(* The one place a count-delivery mode is chosen. A new mode is one
   module implementing [Env_base.DELIVERY] plus one line here. *)
let create ?dcas_impl ?policy ?(rc_mode = Eager) ?gc_threshold ?metrics
    ?tracer ?lineage ?profile ?blame ?sanitize ?symbolic heap =
  let rc =
    match rc_mode with
    | Eager -> Rc ((module Rc_eager), ())
    | Deferred_rc { epoch } ->
        Rc ((module Rc_deferred), Rc_deferred.create ~epoch)
    | Wait_free { weight } ->
        Rc ((module Rc_weighted), Rc_weighted.create ~weight)
  in
  make ?dcas_impl ?policy ?gc_threshold ?metrics ?tracer ?lineage ?profile
    ?blame ?sanitize ?symbolic ~rc heap
