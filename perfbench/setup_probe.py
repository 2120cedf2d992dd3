"""Time one solver set-up in a fresh process: ``import irpdg`` plus run()'s preparation.

Usage, from the checkout root: ``python3 perfbench/setup_probe.py <workload> <seed>``.
Preparation is everything ``irpdg.harness.run`` does before it calls
``evolve`` (validation, preset, mesh, entropy floor, L2 projection); the
probe stops ``run`` at that call.  Prints one JSON line with both times in
seconds.
"""

import json
import os
import sys
import time


class _ReachedEvolve(Exception):
    pass


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.abspath("src"))
    start = time.perf_counter()
    import irpdg.harness
    import_s = time.perf_counter() - start

    from workloads import config_for
    config = config_for(name, seed)
    reached = []

    def stop(*args, **kwargs):
        reached.append(time.perf_counter())
        raise _ReachedEvolve

    irpdg.harness.evolve = stop
    start = time.perf_counter()
    try:
        irpdg.harness.run(config)
    except _ReachedEvolve:
        pass
    if not reached:
        sys.exit("setup probe: run() returned without calling evolve")
    print(json.dumps({"import_s": import_s, "prepare_s": reached[0] - start}))


if __name__ == "__main__":
    main()
