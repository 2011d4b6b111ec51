"""Block-wise feature caching for a toy diffusion transformer.

Accelerates DDIM sampling by ranking transformer blocks by the cosine
similarity of their residual deltas across adjacent timesteps, recomputing
only the least-similar fraction, and serving the rest by first-order linear
prediction from the cache.  Ships with compute accounting, an offline oracle
for policy-fidelity scoring, and CSV/JSON analysis tooling.
"""

from .diffusion import (
    NoiseSchedule,
    SamplerRun,
    ddim_step,
    forward_noise,
    make_run,
    make_schedule,
    sample,
    uniform_step_list,
)
from .dit import BlockIO, BlockWeights, DitConfig, Network, init_network, network_forward, timestep_embedding
from .engine import (
    BlockCacheEntry,
    PolicySequence,
    SortblockConfig,
    SortblockEngine,
    cosine_similarity,
    expected_eval_count,
    inner_window,
    linear_predict,
    recompute_quota,
    run_sortblock,
    select_blocks,
)
from .errors import (
    ConfigError,
    FitError,
    MissingDataError,
    NonFiniteError,
    ParseError,
    ResourceError,
    ShapeError,
    SortblockError,
)
from .metrics import ImageView, kendall_tau, latent_pair_to_images, psnr, relative_l2, ssim
from .numerics import (
    Matrix,
    Polynomial,
    Rng,
    as_matrix,
    gelu,
    layer_norm,
    matmul,
    mix64,
    poly_eval,
    polyfit,
    softmax_rows,
    standard_normal,
)
from .ratio import RatioPolicy, evaluate_ratio, fit_ratio_policy, load_policy, measure_l1_curve, save_policy
from .trace import RunTrace, StepRecord, oracle_similarities, ranking_fidelity, record_baseline

__version__ = "0.1.0"
