from .model import ToyPolicy, load_policy, save_policy
from .nets import TOKEN_DIM, denoiser_forward_batch, encode_gravmap, step_embedding
from .rollout import evaluate, run_episode
from .train import (Adam, TrainConfig, TrainingDiverged, build_negative_pool, build_transitions,
                    compute_gradients, train)

__all__ = [
    "Adam", "TOKEN_DIM", "ToyPolicy", "TrainConfig",
    "TrainingDiverged", "build_negative_pool", "build_transitions", "compute_gradients",
    "denoiser_forward_batch", "encode_gravmap", "evaluate", "load_policy", "run_episode",
    "save_policy", "step_embedding", "train",
]
