#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every run against.

    python3 bench/make_reference.py [--workload NAME ...]

Runs every stream seed of the named workloads (all of them by default) once and
merges the outputs into ``bench/reference.json``. Run it only on the commit
whose behaviour is the reference; a later change that moves these outputs on
purpose must say so and re-record them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import warnings

import run_bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)

    run_bench._limit_blas_threads()
    run_bench._import_fedcef()
    import workloads as W
    from fedcef.algorithms import StepConditionWarning

    warnings.filterwarnings("ignore", category=StepConditionWarning)
    warnings.filterwarnings("ignore", message="power iteration hit the iteration cap")
    try:
        ref = W.load_reference()
    except FileNotFoundError:
        ref = {"workloads": {}}
    ref["rtol"] = W.RTOL
    ref["problem_seed"] = W.PROBLEM_SEED
    ref["stream_seeds"] = W.STREAM_SEEDS
    ref["git_sha"] = run_bench.git_sha(run_bench.ROOT)
    for name in args.workload or list(W.WORKLOADS):
        wl = W.WORKLOADS[name]
        table = ref["workloads"][name] = {}
        prob = None
        for seed in range(W.STREAM_SEEDS):
            if prob is None:  # the problem instance does not depend on the run seed
                cfg, prob = W.setup(wl.config(seed))
            else:
                cfg = W.harness.parse_config(wl.config(seed))
            with tempfile.TemporaryDirectory() as tmp:
                out = W.run(cfg, prob, wl, tmp, "ref")
            table[str(seed)] = W.outputs(out)
            print(name, seed, json.dumps(table[str(seed)]), flush=True)
    with open(W.REFERENCE_PATH + ".tmp", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(W.REFERENCE_PATH + ".tmp", W.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
