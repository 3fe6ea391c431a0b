"""Policy container and checkpoint format.

A checkpoint is a little-endian file: u32 manifest length, a JSON manifest
(format version, layer shapes, configuration echo), then the parameters as
one contiguous f32 block in manifest order. That block is `ToyPolicy.flat`,
the one float64 parameter buffer, written and read as one array; the
layout is `nets.PARAM_SHAPES`. Parameters are quantized to f32 at the end
of training so save -> load is bit-exact.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from ..demos import CorruptFile, GravkitError
from ..diffusion import SCALED_LINEAR, SQUARED_COS, NoiseSchedule, make_schedule
from ..gravmap import GravMapParams, Workspace
from .nets import LAYERS, PARAM_COUNT, PARAM_SHAPES, param_views

FORMAT_VERSION = 1
MAX_STEPS = 10_000   # longest reverse chain a checkpoint may declare


@dataclass
class ToyPolicy:
    flat: np.ndarray    # the PARAM_COUNT float64 parameters, in checkpoint order
    workspace: Workspace = Workspace()
    gravmap_params: GravMapParams = GravMapParams()
    steps: int = 100
    sched_pos_kind: str = SCALED_LINEAR
    sched_rot_kind: str = SQUARED_COS
    meta: dict = field(default_factory=dict)

    _scheds: tuple | None = None
    params: dict = field(init=False, repr=False)   # name -> view into flat

    def __post_init__(self):
        self.params = param_views(self.flat)

    @classmethod
    def init(cls, seed, **kw):
        """He-scaled normal weights for layers that feed a ReLU, 1/fan_in
        variance for the others, drawn in LAYERS order; biases stay zero."""
        rng = np.random.default_rng(seed)
        policy = cls(flat=np.zeros(PARAM_COUNT), **kw)
        for w, _, fan_in, _, feeds_relu in LAYERS:
            scale = np.sqrt(2.0 / fan_in) if feeds_relu else np.sqrt(1.0 / fan_in)
            rng.standard_normal(out=policy.params[w])
            policy.params[w] *= scale
        return policy

    def schedules(self) -> tuple[NoiseSchedule, NoiseSchedule]:
        if self._scheds is None:
            self._scheds = (make_schedule(self.sched_pos_kind, self.steps),
                            make_schedule(self.sched_rot_kind, self.steps))
        return self._scheds

    def quantize(self):
        """Round every parameter to its f32 value (in-place) so that the
        serialized model evaluates identically to the in-memory one."""
        self.flat[...] = self.flat.astype("<f4")

    def param_bytes(self) -> bytes:
        return self.flat.astype("<f4").tobytes()


def save_policy(policy: ToyPolicy, path):
    manifest = {
        "format_version": FORMAT_VERSION,
        "steps": policy.steps,
        "sched_pos": policy.sched_pos_kind,
        "sched_rot": policy.sched_rot_kind,
        "workspace": {"min": list(policy.workspace.min), "max": list(policy.workspace.max)},
        "gravmap": asdict(policy.gravmap_params),
        "meta": policy.meta,
        "layers": [{"name": name, "shape": list(shape)} for name, shape in PARAM_SHAPES.items()],
    }
    blob = json.dumps(manifest, separators=(",", ":"), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(policy.param_bytes())


def load_policy(path) -> ToyPolicy:
    """Read a checkpoint; a truncated, padded or corrupt file raises
    CorruptFile naming it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _policy_from_bytes(raw)
    except KeyError as exc:
        raise CorruptFile(f"{path}: manifest field {exc} is missing") from exc
    except (GravkitError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc


def _policy_from_bytes(raw: bytes) -> ToyPolicy:
    if len(raw) < 4:
        raise GravkitError(f"{len(raw)} bytes, too short for the manifest length")
    (mlen,) = struct.unpack_from("<I", raw, 0)
    if 4 + mlen > len(raw):
        raise GravkitError(f"{mlen}-byte manifest runs past the end of the {len(raw)}-byte file")
    manifest = json.loads(raw[4:4 + mlen].decode("utf-8"))
    if not isinstance(manifest, dict):
        raise GravkitError("manifest is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise GravkitError(f"unsupported checkpoint version {manifest.get('format_version')}")
    if [layer["name"] for layer in manifest["layers"]] != list(PARAM_SHAPES):
        raise GravkitError("manifest layers do not match the model's")
    for layer in manifest["layers"]:
        name, shape = layer["name"], tuple(layer["shape"])
        if shape != PARAM_SHAPES[name]:
            raise GravkitError(f"layer {name}: shape {shape} != expected {PARAM_SHAPES[name]}")
    size = 4 + mlen + 4 * PARAM_COUNT
    if len(raw) != size:
        raise GravkitError(f"{PARAM_COUNT} parameters take {size} bytes, the file has {len(raw)}")
    steps = manifest["steps"]
    if type(steps) is not int or not 1 <= steps <= MAX_STEPS:   # type(): bool is an int
        raise GravkitError(f"manifest field 'steps' must be an integer in 1..{MAX_STEPS}, got {steps!r}")
    flat = np.frombuffer(raw, dtype="<f4", offset=4 + mlen).astype(float)
    if not np.isfinite(flat).all():
        name, arr = next((n, a) for n, a in param_views(flat).items() if not np.isfinite(a).all())
        index = np.unravel_index(np.argmin(np.isfinite(arr)), arr.shape)
        raise GravkitError(f"parameter {name}{list(map(int, index))} is not finite: {arr[index]}")
    try:
        gravmap_params = GravMapParams(**manifest["gravmap"])
    except (TypeError, ValueError) as exc:
        raise GravkitError(f"manifest field 'gravmap': {exc}") from exc
    policy = ToyPolicy(
        flat=flat,
        workspace=Workspace(tuple(manifest["workspace"]["min"]), tuple(manifest["workspace"]["max"])),
        gravmap_params=gravmap_params,
        steps=steps,
        sched_pos_kind=manifest["sched_pos"],
        sched_rot_kind=manifest["sched_rot"],
        meta=manifest.get("meta", {}),
    )
    policy.schedules()   # an unknown schedule kind fails here, not at first use
    return policy
