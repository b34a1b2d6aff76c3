"""Pluggable (min, +) convolution kernel backends.

The partitioning DP (Eq. 15/16) is a left fold of min-plus convolutions,
and that convolution is the hot path of every scheme, sweep and online
epoch.  This module is the registry of interchangeable implementations
of the one kernel contract::

    out[k] = min_{i = 0..k} a[i] + b[k - i]
    split[k] = the smallest i realizing out[k]   (first-occurrence ties)

Backends (registration order = catalog order):

* ``blocked`` — 2-D tiling of the candidate matrix: both the output
  index ``k`` and the candidate index ``i`` are tiled.  Each tile is a
  basic slice of one strided view of reversed ``b`` (no gather), summed
  with ``a`` in a single ``tile²`` scratch buffer per call, so memory
  stays bounded however long the curves are and the working tile stays
  cache-resident on long grids.  The default, and the kernel the
  pinned :func:`minplus_convolve` runs;
* ``oracle``  — the pure-Python double loop.  O(C²) interpreted —
  registered so the parity tests and the CI backend matrix can select it
  like any other backend, but never the default.  Every other backend
  is tested bit-exact against it.

Selection: the active backend is resolved once at import from the
``REPRO_KERNEL`` environment variable (unknown names raise), falling
back to ``blocked``.
``repro-cps --kernel <name>`` and :func:`set_kernel` re-select at
runtime; :func:`register_kernel_metric` exposes the active name as the
``repro_kernel_backend_info`` gauge.

The bit-exactness contract every backend must honour (pinned by
``tests/test_kernels.py``): byte-identical ``out`` values **and**
byte-identical ``split`` tie-breaks versus :func:`oracle_convolve`,
including ``+inf`` constraint entries (an all-infeasible output cell
reports ``split == 0``).  The contract is what lets the FoldCache treat
results from different backends as interchangeable cache entries.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.prom import Registry

__all__ = [
    "KernelFn",
    "register_kernel",
    "kernel_names",
    "get_kernel",
    "set_kernel",
    "active_kernel",
    "detect_kernel",
    "convolve",
    "minplus_convolve",
    "oracle_convolve",
    "register_kernel_metric",
]

#: A backend: two validated, contiguous, equal-length 1-D float64 curves
#: in; ``(out, split)`` out, honouring the module's bit-exactness contract.
KernelFn = Callable[[np.ndarray, np.ndarray], "tuple[np.ndarray, np.ndarray]"]

_KERNELS: "OrderedDict[str, KernelFn]" = OrderedDict()
_ACTIVE: str = ""

#: Tile edge of the blocked kernel: 256² doubles = 512 KiB per tile pair.
_BLOCKED_TILE = 256


def register_kernel(name: str) -> Callable[[KernelFn], KernelFn]:
    """Class of decorator: add a backend to the catalog under ``name``.

    Names must be unique — a duplicate silently shadowing the oracle
    backend would un-pin the parity tests.
    """

    def deco(fn: KernelFn) -> KernelFn:
        if not name:
            raise ValueError("kernel name must be non-empty")
        if name in _KERNELS:
            raise ValueError(f"kernel {name!r} is already registered")
        _KERNELS[name] = fn
        return fn

    return deco


def kernel_names() -> tuple[str, ...]:
    """Every registered backend name, in registration (= catalog) order."""
    return tuple(_KERNELS)


def get_kernel(name: str) -> KernelFn:
    """Look up one backend; unknown names raise ``ValueError``."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: {', '.join(_KERNELS)}"
        ) from None


def set_kernel(name: str) -> str:
    """Select the active backend; returns the previously active name."""
    global _ACTIVE
    get_kernel(name)  # validate before switching
    previous = _ACTIVE
    _ACTIVE = name
    return previous


def active_kernel() -> str:
    """The name of the backend :func:`convolve` currently dispatches to."""
    return _ACTIVE


def detect_kernel(env: str | None = None) -> str:
    """Resolve the backend for an environment value (``REPRO_KERNEL``).

    An explicit name must be registered (unknown names raise, loudly —
    a typo'd ``REPRO_KERNEL`` must not silently fall back to a slower
    backend).  With no explicit choice: ``blocked``.
    """
    if env:
        get_kernel(env)
        return env
    return "blocked"


def convolve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-plus convolution through the active backend.

    The public kernel entry point: validates the operands once, then
    dispatches to whatever :func:`active_kernel` names.  Returns
    ``(out, split)`` where ``split[k]`` is the budget given to ``a`` in
    the optimal split of ``k`` (ties resolved to the smallest
    ``a``-share, matching ``argmin``'s first-occurrence rule).  A ``NaN``
    operand raises ``ValueError``.
    """
    a, b = _operands(a, b)
    return _KERNELS[_ACTIVE](a, b)


def _operands(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both curves as contiguous float64, checked against the contract.

    ``NaN`` has no place in a (min, +) order: ``argmin`` picks it while a
    strict ``<`` scan skips it, so backends would disagree on the result.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("cost curves must be 1-D and of equal length")
    for name, curve in (("a", a), ("b", b)):
        nan = np.isnan(curve)
        if nan.any():
            raise ValueError(f"cost curve {name} is NaN at index {int(nan.argmax())}")
    return a, b


# ---------------------------------------------------------------------------
# blocked — 2-D tiled candidate matrices with bounded scratch
# ---------------------------------------------------------------------------


def _blocked_convolve_impl(
    a: np.ndarray, b: np.ndarray, *, tile: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tile both the output index and the candidate index, allocation-free.

    Row ``k`` of the candidate matrix is ``a[i] + b[k-i]``: a window of
    reversed-``b`` padded with ``+inf`` (the ``i > k`` cells), so one
    strided view serves every row, and its row-reversal puts row ``k``
    at index ``k``.  A ``[k0, k1) × [i0, i1)`` tile of that view is a
    basic slice, not a gather: it is copied into one ``tile²`` scratch
    buffer allocated once per call, ``a[i0:i1]`` is added in place, and
    the per-row ``argmin`` of the scratch gives the tile's partial
    ``(min, argmin)``.  The first ``i``-tile of a ``k``-tile writes
    ``out``/``split`` directly; later ones merge in ascending ``i``
    order with a strict ``<``, which preserves the global
    first-occurrence tie-break exactly (an all-``+inf`` row keeps
    ``split = 0`` from the first tile).  The scratch stays
    cache-resident however long the curves are, and no result aliases
    it.
    """
    n = a.size
    out = np.empty(n, dtype=np.float64)
    split = np.empty(n, dtype=np.int64)
    padded = np.concatenate([b[::-1], np.full(n - 1, np.inf)]) if n > 1 else b[::-1]
    step = padded.strides[0]
    # rows[k, i] = b[k - i] for i <= k, +inf above the diagonal
    rows = np.lib.stride_tricks.as_strided(
        padded, shape=(n, n), strides=(step, step), writeable=False
    )[::-1]
    side = min(tile, n)
    scratch = np.empty(side * side, dtype=np.float64)
    for k0 in range(0, n, tile):
        k1 = min(k0 + tile, n)
        best = out[k0:k1]
        arg = split[k0:k1]
        # candidates i >= k1 are +inf padding in every row of this tile
        for i0 in range(0, k1, tile):
            i1 = min(i0 + tile, k1)
            width = i1 - i0
            cand = scratch[: best.size * width].reshape(best.size, width)
            # copying the slice, then adding in place, beats one strided
            # broadcast add; the sum is the same b[k-i] + a[i] either way
            np.copyto(cand, rows[k0:k1, i0:i1])
            np.add(cand, a[i0:i1], out=cand)
            idx = cand.argmin(axis=1)
            vals = scratch[idx + np.arange(0, cand.size, width)]
            if i0 == 0:
                best[:] = vals
                arg[:] = idx
            else:
                upd = vals < best  # strict: earlier tiles keep equal minima
                best[upd] = vals[upd]
                arg[upd] = idx[upd] + i0
    return out, split


@register_kernel("blocked")
def _blocked_convolve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _blocked_convolve_impl(a, b, tile=_BLOCKED_TILE)


# ---------------------------------------------------------------------------
# oracle — the pure-Python double loop (the parity tests' ground truth)
# ---------------------------------------------------------------------------


@register_kernel("oracle")
def oracle_convolve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interpreted, dependency-free ground truth for the kernel contract.

    Python floats are IEEE doubles, so ``a[i] + b[k-i]`` here is the
    same bit pattern every vectorized backend produces — making
    byte-identical comparison meaningful, not merely approximate.
    """
    n = a.size
    av = a.tolist()
    bv = b.tolist()
    out = np.empty(n, dtype=np.float64)
    split = np.empty(n, dtype=np.int64)
    for k in range(n):
        best = float("inf")
        arg = 0
        for i in range(k + 1):
            v = av[i] + bv[k - i]
            if v < best:  # strict: first occurrence wins ties
                best = v
                arg = i
        out[k] = best
        split[k] = arg
    return out, split


_ACTIVE = detect_kernel(os.environ.get("REPRO_KERNEL"))


#: The tiled kernel under its historical name.  Importing it directly
#: bypasses the registry (and therefore ``REPRO_KERNEL`` / ``--kernel``):
#: production code should call :func:`convolve` instead — repro-lint's
#: RL009 enforces exactly that outside ``repro/core``.
def minplus_convolve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-plus convolution on the tiled kernel, whatever backend is active.

    Validates like :func:`convolve` — the stable ground for golden tests
    and for callers that must not vary with ``REPRO_KERNEL``.
    """
    a, b = _operands(a, b)
    return _blocked_convolve_impl(a, b, tile=_BLOCKED_TILE)


def register_kernel_metric(
    registry: "Registry", *, prefix: str = "repro"
) -> "Registry":
    """Expose the active backend as ``<prefix>_kernel_backend_info``.

    The Prometheus info-metric idiom: a gauge pinned at 1 whose
    ``backend`` label carries the name, read at scrape time so a
    runtime :func:`set_kernel` shows up on the next scrape.  Returns
    the registry for chaining.
    """
    registry.gauge(
        f"{prefix}_kernel_backend_info",
        "Active min-plus kernel backend (constant 1; name in the label).",
        labelnames=("backend",),
    ).set_function(lambda: {active_kernel(): 1})
    return registry
