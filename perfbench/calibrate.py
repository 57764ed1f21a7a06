"""Host-speed calibration for the benchmark's times.

Hosts that share their cores with other tenants drift in speed by a
third and more over minutes, and no counter inside the guest shows it:
process time grows exactly as wall time does.  So the benchmark times a
fixed kernel next to the jobs, of the same kind of work (small complex
matmuls and eigensolves driven from Python, plus a few 64x64 products),
and scales each pass's job times by REFERENCE_S / (median kernel time
in that pass).  Times are then reported as on a host that runs the
kernel in REFERENCE_S seconds, and the drift cancels.  A change to the
package cannot move the kernel, so every change still shows in full.
The report keeps the raw times and the speed factor next to them.
"""

import time

import numpy as np

# the kernel's time on an uncontended 2-core x86-64 host (Python 3.11,
# numpy 2.4 with OpenBLAS on one thread)
REFERENCE_S = 0.006

# bound now, so that tracing, which wraps numpy.linalg, never slows it
_eigvalsh = np.linalg.eigvalsh
_rng = np.random.default_rng(0)
_G = _rng.standard_normal((9, 4, 4)) + 1j * _rng.standard_normal((9, 4, 4))
_SMALL = [(g + g.conj().T) / 2 for g in _G]
_LARGE = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    seen = {}
    for i in range(55):
        for k, h in enumerate(_SMALL):
            m = h @ h + 0.5 * h
            acc += float(_eigvalsh((m + m.conj().T) / 2)[0])
            seen[i, k] = acc
    for _ in range(4):
        _LARGE @ _LARGE
    return time.perf_counter() - t0
