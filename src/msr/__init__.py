"""Deterministic multi-scenario reasoning engine and simulation harness.

Submodules follow the pipeline order: dataset (synthetic corpus), ingest
(trust filter + normalization), scenario (candidate generation), attention
(relevance + refinement), memory (STM/LTM retrieval), decision (utility
argmax), sim2real (gridworld policies + alignment), executor (action
emission), evaluation (per-step confusion metrics), pipeline (the runner),
cli (gen / run / report).
"""

import os
import sys

# msr's matrix products are far too small for OpenBLAS to split, so its worker thread
# would only spin; a thread count the user set, or numpy already loaded, wins
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in _THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
