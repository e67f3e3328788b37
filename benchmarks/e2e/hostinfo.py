"""Host fingerprint and the copy-bandwidth roof probe.

``python hostinfo.py`` runs the probe in its own process and prints one
JSON object: ``np.copyto`` between two arrays each at least four times
the machine's L2+L3 capacity (read from sysfs), so the copy streams from
DRAM.  Bandwidth counts bytes read plus bytes written, the same
convention as the computed SpMV bytes it is the roof for.
"""

from __future__ import annotations

import json
import pathlib
import platform
import statistics
import time

CPU_SYSFS = pathlib.Path("/sys/devices/system/cpu")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Probe array size when sysfs reports no cache sizes.
FALLBACK_ARRAY_BYTES = 256 << 20
COPY_REPEATS = 5


def _size_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def caches() -> list[dict]:
    """Distinct CPU caches: one entry per (level, type, sharing set)."""
    seen = {}
    for index in sorted(CPU_SYSFS.glob("cpu[0-9]*/cache/index[0-9]*")):
        try:
            entry = {
                "level": int((index / "level").read_text()),
                "type": (index / "type").read_text().strip(),
                "size_bytes": _size_bytes((index / "size").read_text()),
                "shared_cpu_list": (index / "shared_cpu_list").read_text().strip(),
            }
        except (OSError, ValueError):
            continue
        seen[(entry["level"], entry["type"], entry["shared_cpu_list"])] = entry
    return list(seen.values())


def l2_l3_bytes() -> int:
    """Total L2 + L3 capacity across all cores."""
    return sum(c["size_bytes"] for c in caches() if c["level"] in (2, 3))


def cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(nproc: int, env: dict) -> dict:
    """What the host numbers depend on (the copy roof is added by the probe)."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc,
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: env.get(k) for k in THREAD_VARS},
    }


def copy_probe() -> dict:
    import numpy as np

    cache = l2_l3_bytes()
    nbytes = 4 * cache if cache else FALLBACK_ARRAY_BYTES
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault every page in before timing
    times = []
    for _ in range(COPY_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return {
        "copy_gbps": 2 * src.nbytes / statistics.median(times) / 1e9,
        "copy_array_bytes": src.nbytes,
        "l2_l3_bytes": cache,
    }


if __name__ == "__main__":
    print(json.dumps(copy_probe()))
