"""Measure one cold set-up in a fresh interpreter.

Usage: python3 setup_probe.py <src-dir> < model-texts

Model texts arrive on standard input separated by NUL bytes and are read
before the clock starts. The timed part imports colprob and its CLI layer
and parses (which validates) every model, which is what a CLI process or
REPL pays before its first query. Prints the elapsed seconds.
"""

import sys
import time

texts = sys.stdin.read().split("\0")
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import colprob  # noqa: E402
import colprob.cli  # noqa: E402,F401

models = [colprob.parse_model(text) for text in texts]
elapsed = time.perf_counter() - start
print(repr(elapsed))
