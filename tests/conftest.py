"""Test-session set-up.

The golden reports are compared byte for byte, and the last bits of a
factor depend on the BLAS kernel OpenBLAS picks for the CPU. The goldens
are frozen with its Haswell (AVX2) kernels, which any x86-64 CPU with AVX2
runs, so the session asks for them unless OPENBLAS_CORETYPE is already set.
numpy and scipy load OpenBLAS on first import, after this file runs.
"""

import os

os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")
