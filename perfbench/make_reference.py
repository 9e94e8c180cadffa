"""Write perfbench/reference.json from the library in ``src``.

    python3 perfbench/make_reference.py

The reference holds the outputs the correctness gates compare against:
the census CLI bytes, digests of every n = 7 generator and p_{h,eta}
text, the triangular solver's known gaps, and the classify answers of
the default seed.  Regenerate it only from a commit whose outputs are
known to be right.
"""
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

# More passes than a run at the configured length performs.
CLASSIFY_PASSES = 8

if __name__ == "__main__":
    ref = workloads.make_reference(CLASSIFY_PASSES)
    (BENCH_DIR / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")
