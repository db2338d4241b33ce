"""End-to-end and per-layer benchmark of RPS training, RPS serving and the
accelerator dataflow search.  Entry point: ``python3 perfbench/run.py``; see
``perfbench/README.md``."""
