"""Build and load the compiled dataflow kernel (``dataflow.c``).

The kernel is compiled with the system ``cc`` on first use and loaded
through :mod:`ctypes`, so it needs no build step and no dependency
beyond a C compiler. The shared object is cached under
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``; the system
temporary directory when that is not writable), keyed by the SHA-256 of
the source, the compiler flags and ``cc --version`` — a changed source
or toolchain builds a fresh library instead of loading a stale one.
Builds write to a temporary name and ``os.replace`` it into place, so
concurrent processes (pool workers, parallel tests) may race to build
the same key safely.

``-ffp-contract=off`` and the absence of ``-ffast-math`` /
``-march=native`` are load-bearing: fused multiply-adds or reassociated
sums would break bit-identity with the reference loop.

When no compiler works (or the library does not load),
:func:`load_kernel` returns None: the engines fall back to the Python
``acquire`` loop, warn once per process and count the fallback in
``repro_dataflow_kernel_fallback_total``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.obs import metrics as _metrics

SOURCE = Path(__file__).with_name("dataflow.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Counts simulated points that ran through the Python loop because the
#: compiled kernel could not be built or loaded.
FALLBACK_METRIC = "repro_dataflow_kernel_fallback_total"
_metrics.counter(FALLBACK_METRIC, "points simulated without the compiled kernel")

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
#: ``dataflow_walk``'s signature, argument for argument.
_ARGTYPES = (
    [_I] * 4                 # gates, points, qubits, bits
    + [_P] * 8               # q0, q1, q2, cond, result, latency,
                             # move_kind, pi8
    + [_D] * 3               # move_1q, move_2q, qec
    + [_P, _I, _D]           # trips, ports, t_teleport
    + [_P, _P, _P, _I] * 2   # zero / pi8 kind: rate, consumed, seq, cols
    + [_P]                   # makespan out
)

_lock = threading.Lock()
_state: dict = {}


def _cache_dirs() -> Iterator[Path]:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    yield Path(base) / "repro"
    yield Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"


def _build() -> Callable:
    version = subprocess.run(
        ["cc", "--version"], capture_output=True, check=True
    ).stdout
    digest = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(FLAGS).encode(), version):
        digest.update(part)
        digest.update(b"\0")
    name = f"dataflow-{digest.hexdigest()[:24]}.so"
    last_error: Optional[Exception] = None
    for directory in _cache_dirs():
        path = directory / name
        if not path.exists():
            try:
                directory.mkdir(mode=0o700, parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
            except OSError as exc:
                last_error = exc
                continue
            os.close(fd)
            try:
                subprocess.run(
                    ["cc", *FLAGS, "-o", tmp, str(SOURCE)],
                    capture_output=True, check=True,
                )
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        fn = ctypes.CDLL(str(path)).dataflow_walk
        fn.argtypes = _ARGTYPES
        fn.restype = ctypes.c_int
        return fn
    raise OSError(f"no writable cache directory for the kernel: {last_error}")


def load_kernel() -> Optional[Callable]:
    """The compiled ``dataflow_walk`` function, or None if unavailable.

    Built (or loaded from the cache) once per process; a failure is
    remembered, so a missing compiler costs one attempt, not one per
    simulation.
    """
    try:
        return _state["kernel"]
    except KeyError:
        pass
    with _lock:
        if "kernel" not in _state:
            try:
                _state["kernel"] = _build()
            except (OSError, subprocess.SubprocessError) as exc:
                _state["kernel"] = None
                _state["error"] = exc
        return _state["kernel"]


def note_fallback(points: int) -> None:
    """Record ``points`` simulated by the Python loop for want of the
    kernel; warns the first time in a process."""
    _metrics.counter(FALLBACK_METRIC).inc(points)
    if not _state.get("warned"):
        _state["warned"] = True
        warnings.warn(
            "compiled dataflow kernel unavailable "
            f"({_state.get('error')}); simulating with the Python loop "
            "(bit-identical, slower)",
            RuntimeWarning,
            stacklevel=3,
        )
