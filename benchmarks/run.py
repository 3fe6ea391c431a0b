"""gravkit benchmark: one workload per process, end-to-end or traced.

    python3 benchmarks/run.py --workload train --seed 0 --seconds 15 --trace 0

Workloads (benchmarks/README.md says why each exists):
  train         100-iteration training runs on the acceptance demo set
  eval          the criterion-8 trio of `evaluate` calls on the fixture
  episode       single guided shifted-goal episodes, one `evaluate` call each
  synth-scenes  value maps over random 1-3 sphere scenes

A run sets up its workload, repeats a fixed pass of work until `--seconds`
have elapsed (always finishing the pass it is in), checks every output and
prints a JSON object as the last line of stdout. With `--trace 0` it holds
the end-to-end metrics; with `--trace 1` the run wraps the public functions
of every module, times one pass traced and the others untraced, and
reports per-layer figures and the tracing overhead instead.
"""
from __future__ import annotations

import os

# BLAS/OpenMP pools must be pinned before numpy is first imported
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

# Without the sources next to benchmarks/ the run stops here, printing nothing.
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from gravkit import gravmap, sim  # noqa: E402
from gravkit.demos import SubGoal, TaskKind  # noqa: E402
from gravkit.policy import ToyPolicy, TrainConfig, TrainingDiverged, model, rollout  # noqa: E402
from spans import LAYERS, MISSING, Tracer  # noqa: E402

# `gravkit.policy.train` as an attribute is the re-exported function
train_mod = importlib.import_module("gravkit.policy.train")

FIXTURE = HERE / "fixture"
SETUP_REPEATS = {"train": 1, "eval": 3, "episode": 3, "synth-scenes": 3}
TRAIN_ITERS = 100   # per training pass; train.final_loss is the mean of the pass's losses
SYNTH_MAPS = 24     # scenes per synth-scenes pass
IDENTITY_ROT6D = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
# Every call into gravkit goes through a module attribute, so that the
# tracer's wrappers (installed on those attributes) see it.

class Workload:
    """setup() builds the inputs and is timed as setup_s. run_pass(span) does
    a fixed unit of work and returns its timed calls as (items, seconds), in
    the same order every pass. item_times(passes) gives the per-item times
    that item_ms.p50 is the median of. check() returns (failed items,
    messages). named(rate, item_s) gives the figures the benchmark doc
    names."""

    item = "item"

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0

    def item_times(self, passes):
        # each timed call's time spread evenly over its items
        return [t / n for p in passes for n, t in p]


def read_reference() -> dict:
    return json.loads((FIXTURE / "reference.json").read_text())


def load_fixture():
    ref = read_reference()
    digest = hashlib.sha256((FIXTURE / "model.bin").read_bytes()).hexdigest()
    if digest != ref["sha256"]:
        raise SystemExit(f"fixture/model.bin sha256 {digest} != recorded {ref['sha256']}")
    return model.load_policy(FIXTURE / "model.bin"), ref


def warm_lattice(ws, params):
    """The first map of a process computes the memoised lattice ordering."""
    sub = SubGoal(g_pos=np.full(3, 0.5), g_open=1, g_rot=IDENTITY_ROT6D)
    gravmap.generate_gravmap(sub, np.zeros((params.map_size,) * 3, dtype=bool), 1,
                             ws, params, "infer")


def acceptance_demos():
    """The acceptance demo set: 20 touch_only and 20 grasp_place experts."""
    return ([sim.scripted_expert(TaskKind.TOUCH_ONLY, s) for s in range(20)]
            + [sim.scripted_expert(TaskKind.GRASP_PLACE, 1000 + s) for s in range(20)])


def train_pass(config, demos, transitions, pool, stamps: list):
    """One `train()` call that reuses the set-up's transitions and negative
    pool, appending the start time of every iteration to `stamps`.

    Returns (final loss, sha256 of the final parameters)."""
    saved = train_mod.build_transitions, train_mod.build_negative_pool, train_mod.compute_gradients
    grads = saved[2]

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return grads(*args, **kwargs)

    train_mod.build_transitions = lambda demos, policy, config: transitions
    train_mod.build_negative_pool = lambda policy, config: pool
    train_mod.compute_gradients = stamped
    try:
        policy, curve = train_mod.train(config, demos)
    finally:
        train_mod.build_transitions, train_mod.build_negative_pool, train_mod.compute_gradients = saved
    return float(curve[-100:].mean()), hashlib.sha256(policy.param_bytes()).hexdigest()


class Train(Workload):
    item = "iteration"

    def setup(self):
        self.ref = read_reference()["train"]
        if self.ref["iters"] != TRAIN_ITERS:
            raise SystemExit(f"fixture records {self.ref['iters']}-iteration training, "
                             f"the benchmark runs {TRAIN_ITERS}")
        self.demos = acceptance_demos()
        self.config = TrainConfig(iters=TRAIN_ITERS, seed=self.ref["seed"])
        policy = ToyPolicy.init(seed=self.config.seed)
        self.transitions = train_mod.build_transitions(self.demos, policy, self.config)
        self.pool = train_mod.build_negative_pool(policy, self.config)
        self.results, self.iter_s = [], []

    def run_pass(self, span):
        stamps = []
        with span("train.pass"):
            t0 = time.perf_counter()
            try:
                result = train_pass(self.config, self.demos, self.transitions, self.pool, stamps)
            except TrainingDiverged as exc:
                result = (str(exc), None)
            dt = time.perf_counter() - t0
        self.results.append(result)
        self.iter_s += list(np.diff(stamps))
        return [(TRAIN_ITERS, dt)]

    def item_times(self, passes):
        # times between the starts of consecutive iterations inside each pass
        return self.iter_s

    def check(self):
        want = (self.ref["final_loss"], self.ref["param_sha256"])
        bad = [r for r in self.results if r != want]
        msgs = [f"{len(bad)} passes end at (loss, parameter sha256) {bad[0]}, "
                f"fixture records {want}"] if bad else []
        return TRAIN_ITERS * len(bad), msgs

    def named(self, rate, item_s):
        loss, digest = self.results[0]
        return {"train.iters_per_s": (rate, "iter/s"),
                "train.iter_ms.p50": (1e3 * statistics.median(item_s), "ms"),
                "train.final_loss": (loss, "loss"),
                "train.projected_12k_s": (12000 / rate, "s"),
                "train.param_sha256": (digest, "sha256")}


class FixtureWorkload(Workload):
    item = "episode"

    def setup(self):
        self.policy, self.ref = load_fixture()
        warm_lattice(self.policy.workspace, self.policy.gravmap_params)
        self.outcomes = []


class Eval(FixtureWorkload):
    # call name -> (guided, shifted); each call runs the same recorded episodes
    TRIO = {"guided": (True, False), "shifted_guided": (True, True),
            "shifted_unguided": (False, True)}

    def run_pass(self, span):
        n, seed = self.ref["eval"]["episodes"], self.ref["eval"]["seed"]
        rates, times = {}, []
        for name, (guided, shifted) in self.TRIO.items():
            with span(f"eval.{name}"):
                t0 = time.perf_counter()
                rates[name] = rollout.evaluate(self.policy, TaskKind.TOUCH_ONLY, n, seed,
                                               guided=guided, shifted=shifted)
                times.append((n, time.perf_counter() - t0))
        self.outcomes.append(rates)
        return times

    def check(self):
        want = self.ref["eval"]["rates"]
        bad = [r for r in self.outcomes if r != want]
        msgs = [f"success rates {bad[0]} != fixture {want}"] if bad else []
        return len(bad) * 3 * self.ref["eval"]["episodes"], msgs

    def named(self, rate, item_s):
        r = self.outcomes[0]
        return {"eval.episodes_per_s": (rate, "episodes/s"),
                "eval.success.guided": (r["guided"], "share"),
                "eval.success.shifted_guided": (r["shifted_guided"], "share"),
                "eval.success.shifted_unguided": (r["shifted_unguided"], "share"),
                "eval.guidance_gap": (r["shifted_guided"] - r["shifted_unguided"], "share")}


class Episode(FixtureWorkload):
    def run_pass(self, span):
        wins, times = [], []
        for s in self.ref["episode"]["seeds"]:
            with span("episode.guided"):
                t0 = time.perf_counter()
                wins.append(rollout.evaluate(self.policy, TaskKind.TOUCH_ONLY, 1, s,
                                             guided=True, shifted=True))
                times.append((1, time.perf_counter() - t0))
        self.outcomes.append(wins)
        return times

    def check(self):
        want = self.ref["episode"]["outcomes"]
        failed = sum(a != b for wins in self.outcomes for a, b in zip(wins, want))
        return failed, [f"{failed} episode outcomes differ from the fixture"] if failed else []

    def named(self, rate, item_s):
        wins = self.outcomes[0]
        return {"episode.latency_s.p50": (float(np.percentile(item_s, 50)), "s"),
                "episode.latency_s.p90": (float(np.percentile(item_s, 90)), "s"),
                "episode.success": (sum(wins) / len(wins), "share")}


class SynthScenes(Workload):
    item = "map"

    def setup(self):
        self.ws, self.params = gravmap.Workspace(), gravmap.GravMapParams()
        warm_lattice(self.ws, self.params)
        rng = np.random.default_rng([self.seed, 1])
        self.scenes = []
        # the seed places the spheres; every pass holds as many 1-, 2- and
        # 3-sphere scenes, so that its cost does not move with the seed
        for i in range(SYNTH_MAPS):
            objs = [sim.SceneObject(center=rng.uniform(0.1, 0.9, 3), radius=float(rng.uniform(0.02, 0.08)))
                    for _ in range(1 + i % 3)]
            sub = SubGoal(g_pos=rng.uniform(0.05, 0.95, 3), g_open=int(rng.integers(2)),
                          g_rot=IDENTITY_ROT6D)
            self.scenes.append((sim.World(objects=objs), sub, int(rng.integers(2))))
        self.digests, self.maps = [], None

    def run_pass(self, span):
        maps, times = [], []
        for world, sub, current in self.scenes:
            with span("synth.map"):
                t0 = time.perf_counter()
                occ = sim.occupancy_grid(world, self.params.map_size, self.ws)
                gmap = gravmap.generate_gravmap(sub, occ, current, self.ws, self.params, "infer")
                times.append((1, time.perf_counter() - t0))
            maps.append(gmap.points)
        self.digests.append(hashlib.sha256(b"".join(m.tobytes() for m in maps)).hexdigest())
        self.maps = self.maps or maps
        return times

    def check(self):
        """Criterion-1 invariants on every map, and whether its obstacle bump
        survived: a map that equals the empty-scene map of its sub-goal has
        none."""
        ws, p = self.ws, self.params
        cell = ws.extent / p.map_size
        empty = np.zeros((p.map_size,) * 3, dtype=bool)
        failed = bumps = 0
        for (_, sub, current), pts in zip(self.scenes, self.maps):
            center = np.asarray(gravmap.world_to_voxel(sub.g_pos, ws, p.map_size), float)
            vox = np.floor((pts[:, :3] - np.asarray(ws.min)) / cell)
            near = np.sqrt(((vox - center) ** 2).sum(axis=1)) <= p.gripper_radius
            failed += not (pts.shape == (p.num_points, 5)
                           and pts[:, 3].min() >= 0.0 and pts[:, 3].max() <= 1.0
                           and np.all(pts[near, 4] == p.encode_open(sub.g_open))
                           and np.all(pts[~near, 4] == p.encode_open(current)))
            plain = gravmap.generate_gravmap(sub, empty, current, ws, p, "infer")
            bumps += not np.array_equal(plain.points, pts)
        self.bump_share = bumps / len(self.scenes)
        msgs = [f"{failed} maps break the criterion-1 invariants"] if failed else []
        if len(set(self.digests)) != 1:
            msgs.append("map digest differs between passes")
            failed = max(failed, len(self.scenes))
        return failed, msgs

    def named(self, rate, item_s):
        return {"synth.maps_per_s": (rate, "maps/s"),
                "synth.bump_share": (self.bump_share, "share"),
                "synth.maps_sha256": (self.digests[0], "sha256")}


WORKLOADS = {"train": Train, "eval": Eval, "episode": Episode, "synth-scenes": SynthScenes}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def no_span(label):
    return contextlib.nullcontext()


def measure(wl: Workload, seconds: float, span=no_span):
    """Repeat passes until `seconds` have elapsed, at least one.

    Returns (items per second, seconds per item, pass times). The rate
    takes each timed call of the pass at its median over the passes, so one
    pass slowed by a noisy neighbour moves it less than a plain mean would.
    """
    passes, pass_s = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(span))
        pass_s.append(time.perf_counter() - t0)
        wl.attempted += sum(n for n, _ in passes[-1])
        if time.perf_counter() >= deadline:
            break
    calls = list(zip(*passes))
    rate = sum(c[0][0] for c in calls) / sum(statistics.median(t for _, t in c) for c in calls)
    return rate, wl.item_times(passes), pass_s


def setup_in_child(args) -> float:
    """Set-up time of a fresh process, so every sample pays the lazy memos."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                          "--seed", str(args.seed), "--setup-only"],
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def machine_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
            "fixture_sha256": hashlib.sha256((FIXTURE / "model.bin").read_bytes()).hexdigest()}


# ---------------------------------------------------------------------------
# per-layer report
# ---------------------------------------------------------------------------

# figures of the benchmark doc's layer table: (name, traced label, statistic, unit)
LAYER_FIGURES = [
    ("gravmap.generate_gravmap.calls", "gravmap.generate_gravmap", "calls", "count"),
    ("gravmap.generate_gravmap.ms_p50", "gravmap.generate_gravmap", "p50", "ms"),
    ("gravmap.generate_gravmap.ms_p90", "gravmap.generate_gravmap", "p90", "ms"),
    ("gravmap.gaussian_smooth.calls", "gravmap.gaussian_smooth", "calls", "count"),
    ("gravmap.gaussian_smooth.ms_p50", "gravmap.gaussian_smooth", "p50", "ms"),
    ("gravmap.distance_field.calls", "gravmap.distance_field", "calls", "count"),
    ("gravmap.farthest_point_sampling.calls", "gravmap.farthest_point_sampling", "calls", "count"),
    ("gravmap.farthest_point_sampling.s", "gravmap.farthest_point_sampling", "total", "s"),
    ("sim.occupancy_grid.calls", "sim.occupancy_grid", "calls", "count"),
    ("sim.occupancy_grid.ms_p50", "sim.occupancy_grid", "p50", "ms"),
    ("sim.step.calls", "sim.step", "calls", "count"),
    ("sim.step.us_p50", "sim.step", "p50", "us"),
    ("sim.scripted_expert.ms_p50", "sim.scripted_expert", "p50", "ms"),
    ("keypose.distill_demo.ms_p50", "keypose.distill_demo", "p50", "ms"),
    ("policy.train.build_transitions.s", "policy.train.build_transitions", "total", "s"),
    ("policy.train.build_negative_pool.s", "policy.train.build_negative_pool", "total", "s"),
    ("policy.train.compute_gradients.ms_p50", "policy.train.compute_gradients", "p50", "ms"),
    ("policy.train.compute_gradients.ms_p90", "policy.train.compute_gradients", "p90", "ms"),
    ("policy.train.compute_gradients.self_ms_p50", "policy.train.compute_gradients", "self_p50", "ms"),
    ("policy.nets.encoder_forward.ms_p50", "policy.nets.encoder_forward", "p50", "ms"),
    ("policy.nets.encoder_backward.ms_p50", "policy.nets.encoder_backward", "p50", "ms"),
    ("policy.nets.denoiser_forward_batch.ms_p50", "policy.nets.denoiser_forward_batch", "p50", "ms"),
    ("policy.nets.denoiser_backward.ms_p50", "policy.nets.denoiser_backward", "p50", "ms"),
    ("losses.contrastive.us_p50", "losses.contrastive", "p50", "us"),
    ("losses.contrastive_grad.us_p50", "losses.contrastive_grad", "p50", "us"),
    ("policy.train.Adam.step.ms_p50", "policy.train.Adam.step", "p50", "ms"),
    ("diffusion.sample.calls", "diffusion.sample", "calls", "count"),
    ("diffusion.sample.ms_p50", "diffusion.sample", "p50", "ms"),
    ("diffusion.sample.ms_p90", "diffusion.sample", "p90", "ms"),
    ("diffusion.sample.self_ms_p50", "diffusion.sample", "self_p50", "ms"),
    ("policy.nets.denoiser_forward.calls", "policy.nets.denoiser_forward", "calls", "count"),
    ("policy.nets.denoiser_forward.us_p50", "policy.nets.denoiser_forward", "p50", "us"),
    ("policy.nets.encode_gravmap.calls", "policy.nets.encode_gravmap", "calls", "count"),
    ("policy.nets.encode_gravmap.ms_p50", "policy.nets.encode_gravmap", "p50", "ms"),
    ("policy.model.load_policy.ms", "policy.model.load_policy", "total", "ms"),
]
NS_PER = {"s": 1e9, "ms": 1e6, "us": 1e3}
GUIDED_ITEMS = ("eval.guided", "eval.shifted_guided", "episode.guided")


def layer_report(tracer: Tracer, item_roots) -> tuple[dict, dict]:
    """(the doc's named figures, per-module metrics for the result line).
    Figures cover the set-up and the traced pass; a name that is absent or
    never fired is MISSING."""
    every, setup, passes = tracer.stats(), tracer.stats(["bench.setup"]), tracer.stats(item_roots)
    figures = {}
    for name, label, stat, unit in LAYER_FIGURES:
        v = tracer.value(every, label, stat)
        figures[name] = (v if v == MISSING or unit == "count" else v / NS_PER[unit], unit)
    guided = tracer.stats([r for r in item_roots if r in GUIDED_ITEMS])
    maps = tracer.value(guided, "gravmap.generate_gravmap", "calls")
    samples = tracer.value(guided, "diffusion.sample", "calls")
    figures["policy.rollout.maps_per_prediction"] = (
        MISSING if samples == MISSING else (0 if maps == MISSING else maps) / samples, "ratio")

    def layer_of(label):
        return max((ly for ly in LAYERS if label.startswith(ly + ".")), key=len, default=None)

    metrics = {}
    for layer in LAYERS:
        labels = [lbl for lbl in tracer.labels if layer_of(lbl) == layer]
        metrics[f"{layer}.calls"] = (sum(len(every[lbl]["dur"]) for lbl in labels), "count")
        for phase, stats in (("setup", setup), ("pass", passes)):
            ns = sum(int(stats[lbl]["self"].sum()) for lbl in labels)
            metrics[f"{layer}.self_ms.{phase}"] = (ns / 1e6, "ms")
    return figures, metrics


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed)

    if args.setup_only:
        t0 = time.perf_counter()
        wl.setup()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "item": wl.item, "machine": machine_record()}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        with tracer.span("bench.setup"):
            wl.setup()
        tracer.uninstall()
        _, _, untraced_s = measure(wl, args.seconds)
        tracer.install()
        _, _, traced_s = measure(wl, 0, span=tracer.span)
        tracer.uninstall()
        figures, metrics = layer_report(tracer, sorted(tracer.bench_labels - {"bench.setup"}))
        overhead = 100.0 * (traced_s[0] / statistics.median(untraced_s) - 1.0)
        metrics["trace.overhead_pct"] = (overhead, "%")
        failed, msgs = wl.check()
        record.update(untraced_pass_s=untraced_s, traced_pass_s=traced_s,
                      layers={k: {"value": v, "unit": u} for k, (v, u) in figures.items()})
    else:
        t0 = time.perf_counter()
        wl.setup()
        setups = [time.perf_counter() - t0]
        rate, item_s, pass_s = measure(wl, args.seconds)
        setups += [setup_in_child(args) for _ in range(SETUP_REPEATS[args.workload] - 1)]
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                   "items_per_s": (rate, "1/s"),
                   "item_ms.p50": (1e3 * statistics.median(item_s), "ms")}
        failed, msgs = wl.check()
        named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
                 **wl.named(rate, item_s)}
        record.update(setup_samples_s=setups, pass_s=pass_s,
                      named={k: {"value": v, "unit": u} for k, (v, u) in named.items()})
    record["check_messages"] = msgs
    for msg in msgs:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} item={wl.item} "
          f"attempted={wl.attempted} failed={failed}")
    for key in ("named", "layers"):
        for name, m in record.get(key, {}).items():
            print(f"  {name:46s} {m['value']!s:>24} {m['unit']}")
    print("  result metrics:")
    for name, (v, u) in metrics.items():
        print(f"  {name:46s} {v!s:>24} {u}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not msgs, "attempted": wl.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
