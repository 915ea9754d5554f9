"""The repository benchmark: workloads over the solver, shard (with the serve
pool under it) and re-learn layers.  Run ``python3 perfbench/run.py --help``;
see README.md."""
