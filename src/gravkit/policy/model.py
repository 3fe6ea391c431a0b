"""Policy container, its one configuration, and the checkpoint format.

A checkpoint is a little-endian file: u32 manifest length, a JSON manifest
(format version, layer shapes, the CONFIG echo, training meta), then the
parameters as one contiguous f32 block in manifest order. That block is
`ToyPolicy.flat`, the one float64 parameter buffer, written and read as one
array; the layout is `nets.PARAM_SHAPES`. Parameters are quantized to f32 at
the end of training so save -> load is bit-exact. The echo must equal CONFIG
as JSON text: a file sets no size and no schedule.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from ..demos import CorruptFile, GravkitError, read_json
from ..diffusion import (DEFAULT_STEPS, SCALED_LINEAR, SQUARED_COS, make_schedule, pose_schedule,
                         reverse_coefficients)
from ..gravmap import DEFAULT_GRAVMAP_PARAMS, Workspace
from .nets import LAYERS, PARAM_COUNT, PARAM_SHAPES, param_views

FORMAT_VERSION = 1
WORKSPACE = Workspace()
# the pose's one diffusion schedule, and the reverse chain's table built from it
SCHEDULE = pose_schedule(make_schedule(SCALED_LINEAR, DEFAULT_STEPS),
                         make_schedule(SQUARED_COS, DEFAULT_STEPS))
REVERSE_COEFS = reverse_coefficients(SCHEDULE)
CONFIG = {"steps": DEFAULT_STEPS, "sched_pos": SCALED_LINEAR, "sched_rot": SQUARED_COS,
          "workspace": {"min": list(WORKSPACE.min), "max": list(WORKSPACE.max)},
          "gravmap": asdict(DEFAULT_GRAVMAP_PARAMS)}


@dataclass
class ToyPolicy:
    flat: np.ndarray    # the PARAM_COUNT float64 parameters, in checkpoint order
    meta: dict = field(default_factory=dict)
    params: dict = field(init=False, repr=False)   # name -> view into flat

    # the one configuration, as class constants (no annotation: not fields)
    workspace = WORKSPACE
    gravmap_params = DEFAULT_GRAVMAP_PARAMS

    def __post_init__(self):
        self.params = param_views(self.flat)

    @classmethod
    def init(cls, seed):
        """He-scaled normal weights for layers that feed a ReLU, 1/fan_in
        variance for the others, drawn in LAYERS order; biases stay zero."""
        rng = np.random.default_rng(seed)
        policy = cls(flat=np.zeros(PARAM_COUNT))
        for w, _, fan_in, _, feeds_relu in LAYERS:
            scale = np.sqrt(2.0 / fan_in) if feeds_relu else np.sqrt(1.0 / fan_in)
            rng.standard_normal(out=policy.params[w])
            policy.params[w] *= scale
        return policy

    def quantize(self):
        """Round every parameter to its f32 value (in-place) so that the
        serialized model evaluates identically to the in-memory one."""
        self.flat[...] = self.flat.astype("<f4")

    def param_bytes(self) -> bytes:
        return self.flat.astype("<f4").tobytes()


def _json_text(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def save_policy(policy: ToyPolicy, path):
    manifest = {
        "format_version": FORMAT_VERSION,
        **CONFIG,
        "meta": policy.meta,
        "layers": [{"name": name, "shape": list(shape)} for name, shape in PARAM_SHAPES.items()],
    }
    blob = _json_text(manifest).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(policy.param_bytes())


def load_policy(path) -> ToyPolicy:
    """Read a checkpoint; a truncated, padded or corrupt file, or one whose
    configuration echo differs from CONFIG, raises CorruptFile naming it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _policy_from_bytes(raw)
    except KeyError as exc:
        raise CorruptFile(f"{path}: manifest field {exc} is missing") from exc
    except (GravkitError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc


def _policy_from_bytes(raw: bytes) -> ToyPolicy:
    if len(raw) < 4:
        raise GravkitError(f"{len(raw)} bytes, too short for the manifest length")
    (mlen,) = struct.unpack_from("<I", raw, 0)
    if 4 + mlen > len(raw):
        raise GravkitError(f"{mlen}-byte manifest runs past the end of the {len(raw)}-byte file")
    manifest = read_json("manifest", GravkitError, blob=raw[4:4 + mlen])
    if not isinstance(manifest, dict):
        raise GravkitError("manifest is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise GravkitError(f"unsupported checkpoint version {manifest.get('format_version')}")
    for name, value in CONFIG.items():
        # as JSON text, so 100.0 and true do not pass for 100 and 1
        if _json_text(manifest[name]) != _json_text(value):
            raise GravkitError(f"manifest field {name!r} differs from this program's "
                               f"{_json_text(value)}")
    if [layer["name"] for layer in manifest["layers"]] != list(PARAM_SHAPES):
        raise GravkitError("manifest layers do not match the model's")
    for layer in manifest["layers"]:
        name, shape = layer["name"], tuple(layer["shape"])
        if shape != PARAM_SHAPES[name]:
            raise GravkitError(f"layer {name}: shape {shape} != expected {PARAM_SHAPES[name]}")
    size = 4 + mlen + 4 * PARAM_COUNT
    if len(raw) != size:
        raise GravkitError(f"{PARAM_COUNT} parameters take {size} bytes, the file has {len(raw)}")
    flat = np.frombuffer(raw, dtype="<f4", offset=4 + mlen).astype(float)
    if not np.isfinite(flat).all():
        name, arr = next((n, a) for n, a in param_views(flat).items() if not np.isfinite(a).all())
        index = np.unravel_index(np.argmin(np.isfinite(arr)), arr.shape)
        raise GravkitError(f"parameter {name}{list(map(int, index))} is not finite: {arr[index]}")
    return ToyPolicy(flat=flat, meta=manifest.get("meta", {}))
