"""End-to-end and per-layer benchmark of the PACK/UNPACK library and
service.  See README.md in this directory; run with
``python -m benchmarks.e2e run --seed 0``."""
