# run outputs, including the program-less copy test_bench.py makes, are not tests
collect_ignore = ["_runs"]
