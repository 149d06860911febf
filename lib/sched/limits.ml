let max_threads = 62
