import os
import sys

# the benchmark's floating-point path: BLAS on one thread.  The pin only
# takes when it is set before numpy loads its BLAS.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS to one thread")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import hypothesis  # noqa: E402  (after the pin: hypothesis may load numpy)

hypothesis.settings.register_profile(
    "apfp", hypothesis.settings(max_examples=25, deadline=None)
)
hypothesis.settings.load_profile("apfp")
