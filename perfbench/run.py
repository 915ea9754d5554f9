"""Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output check passed, 1 when one failed, 2 when the library cannot be
imported, and 3 when the run crashed.
"""

import os
import sys
from pathlib import Path

# One BLAS thread per process; must be set before numpy is first imported.
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"
# Serve knobs stay at their platform defaults, as in the tier-1 suite; the
# removed values are still recorded in the run's environment line.
_REMOVED = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("REPRO_SERVE_")}

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]


def _main() -> int:
    source = _ROOT / "src"
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {source}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != source.resolve():
        print(f"perfbench: repro was imported from {repro.__file__}, not {source}",
              file=sys.stderr)
        return 2
    from perfbench.harness import main
    from perfbench.workloads import WORKLOADS

    return main(WORKLOADS, removed_env=_REMOVED)


if __name__ == "__main__":
    sys.exit(_main())
