"""gravkit: sub-goal keypose distillation, grounded spatial value maps and
value-map-guided diffusion pose sampling, verified on a toy 3D manipulation
simulator."""

# numpy 2 loads numpy.random at its first use; every command draws from it,
# so the package loads it with the rest of its imports
import numpy.random  # noqa: F401

from . import demos, diffusion, gravmap, keypose, losses, policy, sim

__version__ = "0.1.0"

__all__ = ["demos", "diffusion", "gravmap", "keypose", "losses", "policy", "sim", "__version__"]
