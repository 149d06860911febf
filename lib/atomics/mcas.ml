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

(* MCAS status *)
let undecided = 0
let succeeded = 1
let failed = 2

let max_entries = 16

type mdesc = {
  m_seq : int Atomic.t;
  m_status : int Atomic.t;
  (* (cell, expected raw, new raw) per location, sorted by cell id; the
     owner installs a fresh array before publishing the new sequence
     number, so helpers treat (seq, entries) as one snapshot. *)
  mutable m_entries : (Cell.t * int * int) array;
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
        m_seq = Atomic.make 0;
        m_status = Atomic.make failed;
        m_entries = [||];
      })

let rpool =
  Array.init pool_size (fun _ ->
      { r_seq = Atomic.make 0; r_cell = dummy_cell; r_old = 0; r_mref = 0 })

(* Thread slots: simulated threads use their scheduler id (one domain, ids
   0..61); real domains draw unique slots from 64 upward. *)
let slot_counter = Atomic.make 64

let dls_slot =
  Domain.DLS.new_key (fun () -> Atomic.fetch_and_add slot_counter 1)

let my_slot () =
  if Sched.active () then Sched.tid ()
  else begin
    let s = Domain.DLS.get dls_slot in
    if s >= pool_size then failwith "Mcas: descriptor pool exhausted";
    s
  end

(* Snapshot an mdesc's fields if the reference is still current. *)
let read_mdesc idx seq =
  let d = mpool.(idx) in
  if Atomic.get d.m_seq <> seq then None
  else begin
    let entries = d.m_entries in
    if Atomic.get d.m_seq = seq then Some (d, entries) else None
  end

let read_rdesc idx seq =
  let d = rpool.(idx) in
  if Atomic.get d.r_seq <> seq then None
  else begin
    let cell = d.r_cell and old = d.r_old and mref = d.r_mref in
    if Atomic.get d.r_seq = seq then Some (cell, old, mref) else None
  end

(* Complete an installed RDCSS descriptor [rref] sitting in [cell]:
   replace it by the MCAS reference if the MCAS is still undecided, else
   restore the old value. *)
let complete_rdcss cell rref ~old ~mref =
  let m_status =
    match read_mdesc (ref_idx mref) (ref_seq mref) with
    | Some (d, _) -> Atomic.get d.m_status
    | None -> failed (* mcas finished long ago: restore old *)
  in
  let replacement = if m_status = undecided then mref else old in
  Sched.point ();
  ignore (Atomic.compare_and_set (Cell.raw cell) rref replacement)

let help_rdcss rref =
  match read_rdesc (ref_idx rref) (ref_seq rref) with
  | None -> () (* stale: the descriptor's op finished; cell has moved on *)
  | Some (cell, old, mref) -> complete_rdcss cell rref ~old ~mref

(* RDCSS: install [mref] into [cell] iff cell holds [expected_raw] and the
   owning MCAS is still undecided. Returns the raw word that decided the
   outcome: [expected_raw] on success, the differing content otherwise
   (possibly another MCAS reference the caller should help). *)
let rdcss ~slot ~cell ~expected_raw ~mref =
  let rd = rpool.(slot) in
  let seq = Atomic.get rd.r_seq + 1 in
  Atomic.set rd.r_seq seq;
  rd.r_cell <- cell;
  rd.r_old <- expected_raw;
  rd.r_mref <- mref;
  let rref = mk_ref tag_rdcss slot seq in
  let rec install () =
    Sched.point ();
    if Atomic.compare_and_set (Cell.raw cell) expected_raw rref then begin
      Cell.check_write cell "MCAS descriptor install";
      complete_rdcss cell rref ~old:expected_raw ~mref;
      expected_raw
    end
    else begin
      let r = Atomic.get (Cell.raw cell) in
      if Cell.tag_of_raw r = tag_rdcss then begin
        help_rdcss r;
        install ()
      end
      else r
    end
  in
  install ()

(* Help an MCAS operation referenced by [mref] to completion. *)
let rec help_mcas mref =
  match read_mdesc (ref_idx mref) (ref_seq mref) with
  | None -> ()
  | Some (d, entries) ->
      let seq = ref_seq mref in
      let n = Array.length entries in
      (* Phase 1: install the descriptor in every cell, in the (sorted)
         stored order. *)
      let rec install_entry i =
        if i >= n then ()
        else if Atomic.get d.m_seq <> seq then ()
        else if Atomic.get d.m_status <> undecided then ()
        else begin
          let cell, o, _ = entries.(i) in
          let r = rdcss ~slot:(my_slot ()) ~cell ~expected_raw:o ~mref in
          if r = o || r = mref then install_entry (i + 1)
          else if Cell.tag_of_raw r = tag_mcas then begin
            help_mcas r;
            install_entry i
          end
          else
            (* plain value mismatch: the MCAS fails *)
            ignore (Atomic.compare_and_set d.m_status undecided failed)
        end
      in
      install_entry 0;
      if Atomic.get d.m_seq = seq then begin
        (if Atomic.get d.m_status = undecided then
           let installed =
             Array.for_all
               (fun (cell, _, _) -> Atomic.get (Cell.raw cell) = mref)
               entries
           in
           if installed then
             ignore (Atomic.compare_and_set d.m_status undecided succeeded));
        (* Phase 2: detach the descriptor. *)
        let final_status = Atomic.get d.m_status in
        if final_status <> undecided then
          Array.iter
            (fun (cell, o, nw) ->
              let fin = if final_status = succeeded then nw else o in
              Sched.point ();
              ignore (Atomic.compare_and_set (Cell.raw cell) mref fin))
            entries
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
      (match read_rdesc slot rseq with
      | Some (cell, _, _) when Atomic.get (Cell.raw cell) = rref ->
          incr helped
      | _ -> ());
      help_rdcss rref
    end;
    let d = mpool.(slot) in
    let mseq = Atomic.get d.m_seq in
    if mseq > 0 && Array.length d.m_entries > 0 then begin
      let mref = mk_ref tag_mcas slot mseq in
      let needs_help =
        Atomic.get d.m_status = undecided
        || Array.exists
             (fun (cell, _, _) -> Atomic.get (Cell.raw cell) = mref)
             d.m_entries
      in
      if needs_help then begin
        incr helped;
        help_mcas mref
      end
    end;
    !helped
  end

let mcas spec =
  let n = Array.length spec in
  if n = 0 then true
  else if n > max_entries then invalid_arg "Mcas.mcas: too many entries"
  else begin
    let entries =
      Array.map (fun (c, o, nw) -> (c, Cell.encode o, Cell.encode nw)) spec
    in
    Array.sort (fun (a, _, _) (b, _, _) -> compare (Cell.id a) (Cell.id b)) entries;
    for i = 1 to n - 1 do
      let a, _, _ = entries.(i - 1) and b, _, _ = entries.(i) in
      if Cell.id a = Cell.id b then invalid_arg "Mcas.mcas: duplicate cells"
    done;
    let slot = my_slot () in
    let d = mpool.(slot) in
    let seq = Atomic.get d.m_seq + 1 in
    (* Invalidate stale references to this descriptor, then publish fields
       before the first install can expose the new reference. *)
    Atomic.set d.m_seq seq;
    Atomic.set d.m_status undecided;
    d.m_entries <- entries;
    help_mcas (mk_ref tag_mcas slot seq);
    Atomic.get d.m_status = succeeded
  end

let dcas c0 c1 old0 old1 new0 new1 =
  if Cell.id c0 = Cell.id c1 then invalid_arg "Mcas.dcas: identical cells";
  mcas [| (c0, old0, new0); (c1, old1, new1) |]

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
