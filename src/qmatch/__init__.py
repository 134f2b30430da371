"""Queue-based student-teacher distribution matching for tabular data."""

from .augment import CorruptionConfig, corrupt, make_views
from .baselines import (
    PrototypeBank,
    collision_probability,
    dino_proto_loss,
    in_batch_info_nce,
    mse_align_loss,
    tabnet_recon_loss,
    vime_pretext_loss,
)
from .data import (
    PreprocessState,
    SplitSpec,
    TabularDataset,
    apply_preprocess,
    fit_preprocess,
    load_csv,
    make_splits,
    preset_split,
)
from .distill import (
    EmbeddingQueue,
    QMatchConfig,
    qmatch_loss,
    queue_init,
    training_step,
)
from .model import (
    EmaParams,
    EncoderConfig,
    ModelParams,
    ema_update,
    encoder_forward,
    init_params,
    load_checkpoint,
    projector_forward,
    save_checkpoint,
)
from .tensor import (
    Tensor,
    backward,
    cross_entropy_rows,
    finite_difference_check,
    l2_normalize_rows,
    matmul,
    softmax_rows,
)
from .train import (
    AdamW,
    TrainLoopConfig,
    TrialResult,
    aggregate,
    finetune,
    grid_search,
    linear_eval,
    pretrain,
    run_trial,
    supervised_baseline,
)

__version__ = "0.1.0"
