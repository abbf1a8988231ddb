"""Count the library calls ``locint.verify.run_all`` makes directly, per op
kind of the ``algebra`` workload; the counts behind ``algebra.VERIFY_CALLS``.

    python3 perfbench/verify_calls.py --seed 0

Only calls whose caller is ``locint.verify`` itself are counted, so calls
the library makes internally do not add up.  This is a diagnostic to run by
hand; the benchmark does not import ``locint.verify``.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from locint import cutfunction, verify  # noqa: E402

# library function -> op kind of the algebra workload
KIND_OF = {
    (verify, "canonicalize"): "canonicalize",
    (verify, "sf_add"): "ring", (verify, "sf_mul"): "ring",
    (verify, "sf_scale"): "ring", (verify, "sf_neg"): "ring",
    (cutfunction, "add"): "ladder_add",
    (cutfunction, "mul_nonneg"): "ladder_mul",
    (cutfunction, "leq"): "ladder_order",
    (cutfunction, "limits"): "ladder_limits",
    (verify, "decompose_trace"): "decompose",
    (verify, "integrate_simple"): "integrate",
    (verify, "integrate_general"): "integrate_general",
    (verify, "indefinite_integral"): "indefinite",
    (verify, "bridge_check"): "bridge",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    calls, seconds = Counter(), Counter()

    def counting(name, fn):
        def wrapper(*a, **k):
            if sys._getframe(1).f_globals.get("__name__") != verify.__name__:
                return fn(*a, **k)
            t0 = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                calls[name] += 1
                seconds[name] += time.perf_counter() - t0
        return wrapper

    for module, name in KIND_OF:
        setattr(module, name, counting(name, getattr(module, name)))
    t0 = time.perf_counter()
    results = verify.run_all(seed=args.seed)
    print(f"verify.run_all(seed={args.seed}): {time.perf_counter() - t0:.2f} s, "
          f"passed {all(r.passed for r in results)}")
    for (module, name), kind in KIND_OF.items():
        print(f"{kind:18s} {module.__name__ + '.' + name:32s} {calls[name]:6d} calls "
              f"{seconds[name]:7.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
