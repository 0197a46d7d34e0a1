"""``python -m benchmarks.e2e run|trace|compare`` from the repository root.

The simulator is imported from this checkout's ``src`` directory; the
benchmark refuses to run without it rather than pick up another copy.
"""

import sys

from benchmarks.e2e import ROOT

if __name__ == "__main__":
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks.e2e: no simulator sources at {src}")
    sys.path.insert(0, str(src))
    from benchmarks.e2e.cli import main

    sys.exit(main())
