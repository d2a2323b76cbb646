"""The repository benchmark: three workloads, end-to-end metrics and a
traced per-layer view. Run ``python3 perfbench/run.py --help``."""
