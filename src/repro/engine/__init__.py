"""``repro.engine`` -- NumPy-vectorized triangle-listing kernels.

The pure-Python listers in :mod:`repro.listing` are the instrumented
ground truth: per-candidate loops whose ``ops``/``comparisons``
counters define the paper's cost metric. This package re-implements
all 18 search patterns as batched NumPy kernels over the
``OrientedGraph`` CSR arrays -- ``searchsorted`` window bounds,
grouped-arange candidate expansion, and sorted-key membership probes
-- delivering order-of-magnitude speedups at ``n >= 10^5`` while
returning bit-identical triangle sets, counts, and ``ops`` (computed
in closed form from the oriented degrees, eqs. (7)-(9)).

When a C toolchain is present, :mod:`repro.engine.native` compiles a
small pthreads kernel library at first use (merge- and bitmap-based
forward intersection, counting *and* triangle emission, deterministic
multi-thread block driver). :func:`run_native` runs it and raises
:class:`NativeUnavailable` when ``REPRO_NATIVE`` is off or the compile
failed; :func:`run_numpy` never calls it.

Select an engine per call (``list_triangles(..., engine="numpy")``
or ``engine="native"``) or let the ``"auto"`` policy pick; each result
names the engine that ran in ``extra["engine"]``. See
docs/PERFORMANCE.md for the design and measured speedups.
"""

from repro.engine import native
from repro.engine.kernels import (
    CHUNK_CANDIDATES,
    NUMPY_METHODS,
    NativeUnavailable,
    run_method_kernel,
    run_native,
    run_numpy,
)
from repro.engine.native import (
    KERNEL_KINDS,
    list_triangles_array,
    stream_triangles,
)

__all__ = [
    "CHUNK_CANDIDATES",
    "KERNEL_KINDS",
    "NUMPY_METHODS",
    "NativeUnavailable",
    "list_triangles_array",
    "native",
    "run_method_kernel",
    "run_native",
    "run_numpy",
    "stream_triangles",
]
