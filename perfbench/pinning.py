"""
Pins BLAS and OpenMP to one thread in this process and every process it
starts. Import it before numpy.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _var in THREAD_VARS:
    os.environ[_var] = "1"
