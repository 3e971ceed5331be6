"""Reference kernel: a fixed mix of interpreted Python and small numpy calls,
like the package's inner loops, used to cancel the host's drifting speed.

A measured time ``t`` taken while the kernel took ``k`` seconds is reported
as ``t * REF_NOMINAL_S / k``: its value at the speed where the kernel takes
``REF_NOMINAL_S``, the kernel's typical time on the reference machine.  The
kernel does not touch ``fbsde``, so a change to the package moves a
rescaled time exactly as it moves the wall time.
"""

import time

REF_ROUNDS = 800
REF_NOMINAL_S = 0.013


def reference_kernel(np):
    """Seconds taken by the fixed reference work on this machine now."""
    m = np.eye(8) * 8.0 + np.arange(64.0).reshape(8, 8) / 64.0
    acc, table = 0.0, {}
    start = time.perf_counter()
    for k in range(REF_ROUNDS):
        x = np.linalg.solve(m, m[k % 8])
        table[k % 16] = float(x.sum()) + table.get(k % 16, 0.0)
        acc += sum(v * 0.5 for v in table.values())
    elapsed = time.perf_counter() - start
    if acc != acc:  # consumes the result; the kernel's input is finite
        raise RuntimeError("reference kernel produced NaN")
    return elapsed


def rescale(seconds, kernel_seconds):
    """``seconds`` measured while the kernel took ``kernel_seconds``, at reference speed."""
    return seconds * REF_NOMINAL_S / kernel_seconds
