let max_threads = 62

let thread_slots = max_threads + 1
let slot_of_tid tid = tid + 1
let has_slot tid = tid >= -1 && tid < max_threads
