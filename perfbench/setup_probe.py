"""What every CLI call pays before any work, in one fresh process: import
poolruin, load the given configs, build the default Stehfest plan.

Usage: python3 perfbench/setup_probe.py SRC_DIR [CONFIG.json ...]

Prints one JSON line with the seconds spent in each step.
"""

import json
import sys
import time


def main(src, configs):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import poolruin.cli  # noqa: F401  (the CLI imports every module)
    from poolruin.config import load_model
    from poolruin.inversion import default_plan

    t1 = time.perf_counter()
    for path in configs:
        load_model(path)
    t2 = time.perf_counter()
    default_plan()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_model_s": t2 - t1, "plan_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
