"""Time what ``matchdist dist`` does before it solves, in a fresh process.

Usage: python3 setup_probe.py SRC_DIR FILE_A FILE_B

Imports matchdist from SRC_DIR, loads both files with
``io.load_bifiltration`` and shifts them with ``complexes.normalize_pair``,
then prints one JSON object with the three times in seconds, the module
path and the sizes of the loaded pair, so the caller can check what ran.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    src, path_a, path_b = sys.argv[1:4]
    sys.path.insert(0, src)
    t0 = perf_counter()
    import matchdist
    from matchdist import complexes, io

    t1 = perf_counter()
    F1 = io.load_bifiltration(path_a)
    F2 = io.load_bifiltration(path_b)
    t2 = perf_counter()
    F1, F2, _ = complexes.normalize_pair(F1, F2)
    t3 = perf_counter()
    print(json.dumps({
        "module": matchdist.__file__,
        "import_s": t1 - t0,
        "load_s": t2 - t1,
        "normalize_s": t3 - t2,
        "sizes": [F1.n, F2.n],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
