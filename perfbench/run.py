"""setforest benchmark: one workload per run, end-to-end or traced per layer.

Run from the repository root, numpy's thread pools pinned to one thread:

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload mart_text --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --quick    # every check at a small size

Workloads: ``mart_text``, ``rf_text``, ``mixed_csv`` (see README.md). A run
makes its inputs from ``--seed`` (set-up), then repeats whole rounds (ingest,
train, save, cold start, per-row and batch prediction), at least two, while
the next round would still end within ``--seconds``. Every timing is scaled
to a reference host speed (hostspeed.py); the raw times go to the record. ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer metrics: there every
second round runs with the tracing wrappers installed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed output check prints it
with ``"correct": false`` and exits 1; a run that cannot import setforest
from ``src/`` exits 2 without a result. The run record and the spans go to
``perfbench/out/``.
"""

import sys
import time
from pathlib import Path

import numpy  # noqa: F401  loaded before the clock starts; set-up times setforest alone

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import setforest
    except ImportError as exc:
        print(f"error: cannot import setforest from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(setforest.__file__).resolve().is_relative_to(SRC):
        print(f"error: setforest came from {setforest.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    import bench
    return bench.main(sys.argv[1:], import_s)


if __name__ == "__main__":
    sys.exit(main())
