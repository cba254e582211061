"""Pin the BLAS pools to one thread before numpy loads: the suite's small
matrix products slow down many times over when a threaded pool competes with
other processes for the cores.  A value already set in the environment wins."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
