"""Regenerate the benchmark's evaluation fixture.

    python3 benchmarks/make_fixture.py     # train (about 12 min), then record

Training follows the acceptance recipe: 20 touch_only expert demos (seeds
0-19) plus 20 grasp_place demos (seeds 1000-1019), TrainConfig(seed=42),
12000 iterations, BLAS pinned to one thread. The checkpoint goes to
fixture/model.bin. The record, fixture/reference.json, holds its sha256,
the outcomes the `eval` and `episode` workloads must reproduce exactly, and
the final loss and parameter sha256 of the short training run that every
pass of the `train` workload must reproduce exactly.
"""
from __future__ import annotations

import hashlib
import json

# importing run pins BLAS threads before numpy loads and puts src/ on sys.path
from run import (FIXTURE, TRAIN_ITERS, Eval, TaskKind, TrainConfig, acceptance_demos, model,
                 rollout, train_mod)

FIXTURE_ITERS = 12000
EVAL_SEED = 777          # criterion 8's evaluation seed
EVAL_EPISODES = 5        # per call of the eval trio
EPISODE_SEEDS = list(range(2000, 2020))   # one guided shifted-goal episode each


def record(path, demos) -> dict:
    policy = model.load_policy(path)
    short, curve = train_mod.train(TrainConfig(iters=TRAIN_ITERS, seed=42), demos)
    rates = {name: rollout.evaluate(policy, TaskKind.TOUCH_ONLY, EVAL_EPISODES, EVAL_SEED,
                                    guided=g, shifted=s) for name, (g, s) in Eval.TRIO.items()}
    outcomes = [rollout.evaluate(policy, TaskKind.TOUCH_ONLY, 1, s, guided=True, shifted=True)
                for s in EPISODE_SEEDS]
    return {
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "recipe": {"demos": "touch_only 0-19 + grasp_place 1000-1019", "train_seed": 42,
                   "iters": FIXTURE_ITERS, "meta": policy.meta},
        "eval": {"seed": EVAL_SEED, "episodes": EVAL_EPISODES, "task": "touch_only",
                 "rates": rates},
        "episode": {"task": "touch_only", "guided": True, "shifted": True,
                    "seeds": EPISODE_SEEDS, "outcomes": outcomes},
        "train": {"iters": TRAIN_ITERS, "seed": 42, "final_loss": float(curve[-100:].mean()),
                  "param_sha256": hashlib.sha256(short.param_bytes()).hexdigest()},
    }


def main():
    path = FIXTURE / "model.bin"
    demos = acceptance_demos()
    policy, _ = train_mod.train(TrainConfig(iters=FIXTURE_ITERS, seed=42), demos)
    model.save_policy(policy, path)
    ref = record(path, demos)
    (FIXTURE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(json.dumps(ref["eval"]["rates"]), sum(ref["episode"]["outcomes"]), "/", len(EPISODE_SEEDS))


if __name__ == "__main__":
    main()
