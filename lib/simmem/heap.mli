(** The simulated manual-memory heap.

    Objects are arrays of {!Cell}s addressed by integer ids ("pointers"):
    id 0 is the null pointer. [free] recycles ids through per-shape free
    lists, exactly like a real allocator reuses addresses — which is what
    makes the ABA problem and use-after-free reproducible and detectable in
    this environment (the hazards the paper's methodology eliminates).

    Allocation and free are mutex-protected; the paper itself notes that
    [malloc]/[free] are not lock-free and excludes them from the
    lock-freedom claim (its footnote 1). All other operations are wait-free
    cell accesses.

    The heap also carries the machinery a *tracing* collector needs (object
    marks, registered global roots, per-thread shadow-stack frames), so the
    same heap can run in GC-dependent mode under {!Gc_trace}. *)

type t

type ptr = int
(** Object id; 0 is null. *)

exception Use_after_free of { id : int; gen : int; op : string }
exception Double_free of { id : int }
exception Invalid_pointer of { value : int; op : string }

exception Simulated_oom
(** Raised by {!alloc} when an installed {!set_alloc_hook} answers [true] —
    the allocator ran out of memory. Raised before the heap is touched, so
    the failed allocation has no side effects. *)

val null : ptr

val create : ?name:string -> unit -> t

val name : t -> string

(* Allocation *)

val alloc : t -> Layout.t -> ptr
(** New object with reference count 1 (cell 0), all pointer slots null, all
    value slots zero — the paper's constructor behaviour. *)

val free : t -> ptr -> unit
(** Return an object to the allocator. Raises {!Double_free} if it is
    already free. Poisons all cells first. *)

val set_alloc_hook : t -> (unit -> bool) option -> unit
(** Fault-injection hook consulted at the top of every {!alloc}; answering
    [true] makes that allocation raise {!Simulated_oom} without mutating
    the heap. [None] (the default) disables injection. *)

type obs_event =
  | Obs_alloc of { p : ptr; gen : int; live : int }
  | Obs_free of { p : ptr; gen : int; live : int }
      (** [live] is the live-object count just after the event — the
          allocation high-water mark is its running maximum. [gen] is the
          object's incarnation number ({!generation}), so a lifecycle
          recorder can tell a recycled address's histories apart. *)

val set_observer : t -> (obs_event -> unit) option -> unit
(** Observability hook fired after every successful {!alloc} and {!free},
    outside the heap lock (the observer may read heap state). One
    observer per heap; {!Lfrc_core.Env.create} installs the metrics /
    tracing observer when observability is enabled. Unrelated to
    {!set_alloc_hook}, which injects faults rather than observing. *)

val is_live : t -> ptr -> bool
val layout : t -> ptr -> Layout.t
val generation : t -> ptr -> int
(** How many times this id has been allocated; lets tests detect that a
    pointer they held was recycled (ABA evidence). *)

(* Cell access *)

val rc_cell : t -> ptr -> Cell.t
(** The reference-count cell. No liveness check: LFRCLoad's DCAS must be
    able to address the rc of an object that may concurrently be freed
    (the DCAS then fails on the pointer comparison). *)

val ptr_cell : t -> ptr -> int -> Cell.t
(** [ptr_cell h p i] is pointer slot [i]. Raises {!Use_after_free} when the
    object is dead: holding a counted reference must guarantee liveness. *)

val val_cell : t -> ptr -> int -> Cell.t
(** Value slot [i]; liveness-checked like {!ptr_cell}. *)

val n_ptr_slots : t -> ptr -> int

val iter_cells :
  t ->
  ptr ->
  (kind:[ `Rc | `Ptr | `Val ] -> index:int -> Cell.t -> unit) ->
  unit
(** Visit every cell of the object's {e current} layout with its role and
    slot index (rc first, then pointers, then values). Works on dead
    objects — shadow-memory observers use this from the {!set_observer}
    hook to classify cells at allocation time. *)

(* Roots: global pointer variables (e.g. a deque's hats live in its object,
   but the handle to the deque object itself is a root). *)

val root : t -> ?name:string -> unit -> Cell.t
(** A new global pointer cell initialized to null, registered with the
    heap for tracing and leak checks. *)

val release_root : t -> Cell.t -> unit
(** Unregister; the caller is responsible for having destroyed / nulled the
    pointer it held. *)

val roots : t -> Cell.t list

(* Shadow-stack frames: how GC-dependent mode exposes thread-local pointer
   variables to the tracing collector (the role a real collector fills by
   scanning registers and stacks — the very OS support the paper wants to
   avoid needing). *)

type frame

val register_frame : t -> (unit -> ptr list) -> frame
val unregister_frame : t -> frame -> unit
val iter_frame_roots : t -> (ptr -> unit) -> unit

(* Marks, used by the tracing collector and the leak reporter. *)

val set_mark : t -> ptr -> bool -> unit
val get_mark : t -> ptr -> bool

val set_mark_version : t -> ptr -> int -> unit
val get_mark_version : t -> ptr -> int
(** Versioned marks for incremental collection: stamping with the cycle
    number makes "clear all marks" free (bump the number instead of
    touching every object). Independent of the boolean marks. *)

val high_water_id : t -> int
(** The largest object id ever allocated; all valid ids are in
    [1, high_water_id]. O(1). *)

(* Iteration and statistics *)

val iter_live : t -> (ptr -> unit) -> unit

val ptr_slot_values : t -> ptr -> ptr list
(** Current contents of a live object's pointer slots. *)

type stats = {
  allocs : int;
  frees : int;
  live : int;
  peak_live : int;
  live_cells : int;  (** total cells across live objects: footprint proxy *)
}

val stats : t -> stats
val live_count : t -> int
