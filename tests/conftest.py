"""Test-session set-up.

The golden reports are compared byte for byte, and the last bits of a
factor depend on the BLAS kernel OpenBLAS picks for the CPU and, for the
wide band factors of golden/ladder.json, on how many threads it splits them
over. The goldens are frozen with its Haswell (AVX2) kernels, which any
x86-64 CPU with AVX2 runs, on one thread, so the session asks for both
unless OPENBLAS_CORETYPE or OPENBLAS_NUM_THREADS is already set. CI's
tolerance-only solver step sets another kernel and two threads. numpy and
scipy load OpenBLAS on first import, after this file runs.
"""

import os

os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
