"""numpy as np, for every module of the package: the one place that imports it."""

import os
import sys

# trimobius makes no BLAS call, but numpy's OpenBLAS starts a worker thread
# per extra core when numpy loads, and reads OPENBLAS_NUM_THREADS only then.
# So numpy is loaded here with one thread, unless it is loaded already or the
# variable is set, and the environment is then left as it was.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
else:
    import numpy as np
