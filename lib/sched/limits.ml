let max_threads = 62

let thread_slots = max_threads + 1
let domain_slots = 128
let slots = thread_slots + domain_slots
let slot_of_tid tid = tid + 1
let has_slot tid = tid >= -1 && tid < max_threads
