module Cell = Lfrc_simmem.Cell
module Sched = Lfrc_sched.Sched

(* Raw-word tags (Cell stores application value [v] as [v lsl 2]). *)
let tag_value = 0
let tag_rdcss = 1
let tag_mcas = 2

(* Descriptor references are packed as [seq lsl 14 | idx lsl 2 | tag]. *)
let idx_bits = 12
let pool_size = 1 lsl idx_bits

let mk_ref tag idx seq = (seq lsl (idx_bits + 2)) lor (idx lsl 2) lor tag
let ref_idx r = (r lsr 2) land (pool_size - 1)
let ref_seq r = r lsr (idx_bits + 2)

(* DCAS status, kept in the low two bits of a descriptor's state word
   beside its sequence number, so one read or CAS checks both. *)
let undecided = 0
let succeeded = 1
let failed = 2

let state seq status = (seq lsl 2) lor status

(* The two entries (cell, expected raw, new raw), lower cell id first.
   The owner rewrites them in place after starting a new sequence number
   and before its first install publishes the reference, so helpers read
   them between two reads of [m_state]. *)
type mdesc = {
  m_state : int Atomic.t; (* [state seq status] *)
  mutable c0 : Cell.t;
  mutable o0 : int;
  mutable n0 : int;
  mutable c1 : Cell.t;
  mutable o1 : int;
  mutable n1 : int;
}

type rdesc = {
  r_seq : int Atomic.t;
  mutable r_cell : Cell.t;
  mutable r_old : int; (* raw-encoded expected value *)
  mutable r_mref : int; (* mcas descriptor reference word to install *)
}

let dummy_cell = Cell.make 0

let mpool =
  Array.init pool_size (fun _ ->
      {
        m_state = Atomic.make (state 0 failed);
        c0 = dummy_cell;
        o0 = 0;
        n0 = 0;
        c1 = dummy_cell;
        o1 = 0;
        n1 = 0;
      })

let rpool =
  Array.init pool_size (fun _ ->
      { r_seq = Atomic.make 0; r_cell = dummy_cell; r_old = 0; r_mref = 0 })

(* Descriptor slots: a simulated thread uses its scheduler id (one
   domain, ids 0..61); a real domain uses its thread slot, which it holds
   only while it lives ({!Sched.slot}, below {!Lfrc_sched.Limits.slots}). *)
let my_slot () = if Sched.active () then Sched.tid () else Sched.slot ()

(* Complete an installed RDCSS descriptor [rref] sitting in [cell]:
   replace it by the MCAS reference if the MCAS is still undecided, else
   (decided, or its descriptor reused) restore the old value. *)
let complete_rdcss cell rref ~old ~mref =
  let open_state = state (ref_seq mref) undecided in
  let replacement =
    if Atomic.get mpool.(ref_idx mref).m_state = open_state then mref else old
  in
  Sched.point ();
  ignore (Atomic.compare_and_set (Cell.raw cell) rref replacement)

let help_rdcss rref =
  let d = rpool.(ref_idx rref) and seq = ref_seq rref in
  (* A stale reference's op finished; its cell has moved on. *)
  if Atomic.get d.r_seq = seq then begin
    let cell = d.r_cell and old = d.r_old and mref = d.r_mref in
    if Atomic.get d.r_seq = seq then complete_rdcss cell rref ~old ~mref
  end

(* Install [rref] into [cell] if it holds [old], then complete it.
   Returns the raw word that decided the outcome: [old] on success, the
   differing content otherwise (possibly another MCAS reference the
   caller should help). *)
let rec install cell rref ~old ~mref =
  Sched.point ();
  if Atomic.compare_and_set (Cell.raw cell) old rref then begin
    Cell.check_write cell "MCAS descriptor install";
    complete_rdcss cell rref ~old ~mref;
    old
  end
  else begin
    let r = Atomic.get (Cell.raw cell) in
    if Cell.tag_of_raw r = tag_rdcss then begin
      help_rdcss r;
      install cell rref ~old ~mref
    end
    else r
  end

(* RDCSS: install [mref] into [cell] iff cell holds [old] and the owning
   MCAS is still undecided, through the caller's own RDCSS descriptor. *)
let rdcss cell ~old ~mref =
  let slot = my_slot () in
  let rd = rpool.(slot) in
  let seq = Atomic.get rd.r_seq + 1 in
  Atomic.set rd.r_seq seq;
  rd.r_cell <- cell;
  rd.r_old <- old;
  rd.r_mref <- mref;
  install cell (mk_ref tag_rdcss slot seq) ~old ~mref

(* Detach [mref] from [cell], leaving [fin]. *)
let detach cell mref fin =
  Sched.point ();
  ignore (Atomic.compare_and_set (Cell.raw cell) mref fin)

(* Help the DCAS referenced by [mref] to completion. *)
let rec help_mcas mref =
  let d = mpool.(ref_idx mref) and seq = ref_seq mref in
  if Atomic.get d.m_state lsr 2 = seq then begin
    let c0 = d.c0 and o0 = d.o0 and n0 = d.n0 in
    let c1 = d.c1 and o1 = d.o1 and n1 = d.n1 in
    if Atomic.get d.m_state lsr 2 = seq then begin
      let open_state = state seq undecided in
      (* Phase 1: install the descriptor in both cells, lower id first. *)
      if install_entry d mref open_state c0 o0 then
        ignore (install_entry d mref open_state c1 o1);
      if
        Atomic.get d.m_state = open_state
        && Atomic.get (Cell.raw c0) = mref
        && Atomic.get (Cell.raw c1) = mref
      then
        ignore
          (Atomic.compare_and_set d.m_state open_state (state seq succeeded));
      (* Phase 2: detach the descriptor. *)
      let final = Atomic.get d.m_state in
      if final = state seq succeeded then begin
        detach c0 mref n0;
        detach c1 mref n1
      end
      else if final = state seq failed then begin
        detach c0 mref o0;
        detach c1 mref o1
      end
    end
  end

(* Phase 1 for one entry: true to go on to the next entry, false once the
   operation is decided (a plain mismatch decides it failed). *)
and install_entry d mref open_state cell o =
  if Atomic.get d.m_state <> open_state then false
  else begin
    let r = rdcss cell ~old:o ~mref in
    if r = o || r = mref then true
    else if Cell.tag_of_raw r = tag_mcas then begin
      help_mcas r;
      install_entry d mref open_state cell o
    end
    else begin
      ignore
        (Atomic.compare_and_set d.m_state open_state
           (state (ref_seq mref) failed));
      false
    end
  end

(* Adopt a (crashed) thread's descriptor slot: help whatever operation the
   slot's current sequence numbers describe to completion, so no cell is
   left holding a dead thread's descriptor reference. Safe to call at any
   time — helping is idempotent, and a slot whose operations all finished
   is a no-op. Returns how many descriptors actually needed helping. *)
let adopt_slot slot =
  if slot < 0 || slot >= pool_size then 0
  else begin
    let helped = ref 0 in
    (* The RDCSS descriptor first: completing it either promotes the cell
       to the owning MCAS reference (finished by the help below) or
       restores the old value — never leaves the intermediate state. *)
    let rd = rpool.(slot) in
    let rseq = Atomic.get rd.r_seq in
    if rseq > 0 then begin
      let rref = mk_ref tag_rdcss slot rseq in
      if Atomic.get (Cell.raw rd.r_cell) = rref then incr helped;
      help_rdcss rref
    end;
    let d = mpool.(slot) in
    let st = Atomic.get d.m_state in
    let mseq = st lsr 2 in
    if mseq > 0 then begin
      let mref = mk_ref tag_mcas slot mseq in
      if
        st = state mseq undecided
        || Atomic.get (Cell.raw d.c0) = mref
        || Atomic.get (Cell.raw d.c1) = mref
      then begin
        incr helped;
        help_mcas mref
      end
    end;
    !helped
  end

let rec dcas c0 c1 old0 old1 new0 new1 =
  let i0 = Cell.id c0 and i1 = Cell.id c1 in
  if i0 = i1 then invalid_arg "Mcas.dcas: identical cells";
  if i0 > i1 then dcas c1 c0 old1 old0 new1 new0
  else begin
    let slot = my_slot () in
    let d = mpool.(slot) in
    let seq = (Atomic.get d.m_state lsr 2) + 1 in
    (* Invalidate stale references to this descriptor, then write the
       entries before the first install can expose the new reference. *)
    Atomic.set d.m_state (state seq undecided);
    d.c0 <- c0;
    d.o0 <- Cell.encode old0;
    d.n0 <- Cell.encode new0;
    d.c1 <- c1;
    d.o1 <- Cell.encode old1;
    d.n1 <- Cell.encode new1;
    help_mcas (mk_ref tag_mcas slot seq);
    Atomic.get d.m_state = state seq succeeded
  end

let rec read cell =
  Sched.point ();
  let r = Atomic.get (Cell.raw cell) in
  let tag = Cell.tag_of_raw r in
  if tag = tag_value then Cell.decode r
  else begin
    if tag = tag_rdcss then help_rdcss r else help_mcas r;
    read cell
  end

let rec cas cell old_v new_v =
  Sched.point ();
  let old_raw = Cell.encode old_v in
  if Atomic.compare_and_set (Cell.raw cell) old_raw (Cell.encode new_v) then begin
    Cell.check_write cell "successful CAS";
    true
  end
  else begin
    let r = Atomic.get (Cell.raw cell) in
    let tag = Cell.tag_of_raw r in
    if tag = tag_value then false
    else begin
      if tag = tag_rdcss then help_rdcss r else help_mcas r;
      cas cell old_v new_v
    end
  end
