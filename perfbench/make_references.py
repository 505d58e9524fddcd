"""Record the references that run.py checks outputs against, and the eval_checkpoint policy.

Run from the root of a checkout, at the commit whose outputs are the reference:

    python3 perfbench/make_references.py

It trains train_run's seeds 1..TRAIN_SEEDS (two at a time), stores the final
policy of seed POLICY_SEED as policy_seed1.hex (one float.hex value per line,
in the package's parameter layout), evaluates that policy for every
eval_checkpoint seed, and runs every sweep_grid seed. Takes a few minutes on
two cores. Rewriting the references is a change of the benchmark, never part
of a change that claims a gain.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import run


def train_reference(train_seed: int) -> tuple[int, dict, list[float]]:
    import numpy as np
    import axppo

    config = axppo.TrainConfig(seed=train_seed, **run.TRAIN_RUN)
    result = axppo.train(config)
    if result.diverged:
        raise RuntimeError(f"train_run seed {train_seed} diverged; choose other inputs")
    report = axppo.evaluate(
        result.params, config, np.random.default_rng(train_seed + run.SEED_OFFSET_EVAL)
    )
    ref = {"params_sha256": run.params_sha256(result.params), "eval_mean_return": report.mean_return}
    return train_seed, ref, [float(v) for v in result.params]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    import axppo

    references: dict = {"train_run": {}, "eval_checkpoint": {}, "sweep_grid": {}}
    policy = None
    with ProcessPoolExecutor(max_workers=2) as pool:
        for seed, ref, params in pool.map(train_reference, range(1, run.TRAIN_SEEDS + 1)):
            references["train_run"][str(seed)] = ref
            if seed == run.POLICY_SEED:
                policy = params
            print(f"train_run seed {seed}: eval mean {ref['eval_mean_return']}", flush=True)
    (run.BENCH_DIR / "policy_seed1.hex").write_text("\n".join(v.hex() for v in policy) + "\n")

    params = np.array(policy)
    config = axppo.TrainConfig(eval_episodes=run.EVAL_EPISODES)
    references["eval_checkpoint"] = {
        "policy_sha256": run.params_sha256(params),
        "mean_returns": {
            str(s): axppo.evaluate(params, config, np.random.default_rng(s)).mean_return
            for s in range(1, run.EVAL_SEEDS + 1)
        },
    }

    tmp_root = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".perfbench_refs-"))
    try:
        for seed in range(1, run.SWEEP_SEEDS + 1):
            out = tmp_root / f"sweep{seed}"
            axppo.run_sweep(axppo.SweepSpec(base_seed=seed, output_dir=out, **run.SWEEP_GRID))
            rows = [run.run_row(r) for r in run.read_runs_csv(out / "runs.csv")]
            if len(rows) != run.SWEEP_RUNS or any(r["diverged"] for r in rows):
                raise RuntimeError(f"sweep_grid seed {seed} gave {rows}; choose other inputs")
            references["sweep_grid"][str(seed)] = rows
            print(f"sweep_grid seed {seed}: {[r['final_return'] for r in rows]}", flush=True)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    (run.BENCH_DIR / "references.json").write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
