"""gravkit: sub-goal keypose distillation, grounded spatial value maps and
value-map-guided diffusion pose sampling, verified on a toy 3D manipulation
simulator."""

from . import demos, diffusion, gravmap, keypose, losses, policy, sim

__version__ = "0.1.0"

__all__ = ["demos", "diffusion", "gravmap", "keypose", "losses", "policy", "sim", "__version__"]
