module Layout = Lfrc_simmem.Layout
module Heap = Lfrc_simmem.Heap

let snode = Layout.make ~name:"snode" ~n_ptrs:2 ~n_vals:1
let snark = Layout.make ~name:"snark" ~n_ptrs:3 ~n_vals:0

let slot_l = 0
let slot_r = 1
let slot_v = 0

let slot_dummy = 0
let slot_left_hat = 1
let slot_right_hat = 2

let r_cell heap p = Heap.ptr_cell heap p slot_r
let v_cell heap p = Heap.val_cell heap p slot_v
