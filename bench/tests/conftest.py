import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
for path in (SRC, BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
