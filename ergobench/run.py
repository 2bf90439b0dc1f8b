"""Benchmark entry point; run from the repository root.

    python3 ergobench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Imports the package from ./src of the checkout this file sits in and
exits with status 2, printing no result, when that source tree is absent.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "ergoquench" / "__init__.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    # one BLAS thread and a serial experiment pool; must precede the numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["ERGOQUENCH_THREADS"] = "1"
    sys.path.insert(0, str(src))
    import harness
    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
