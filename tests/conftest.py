import os

# pytest loads this file before any test module imports numpy. With one BLAS
# thread, OpenBLAS starts no threads of its own, so the `--jobs` manifest runs
# fork a single-threaded process (Python 3.12+ warns on forks with threads).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
