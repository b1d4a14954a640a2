"""pcrefine: point-cloud pseudo-label refinement toolkit.

Fuses dense but noisy per-point class predictions with sparse, accurate
few-shot support samples via prototype-guided selection and adaptive
infilling, plus a context-preserving novel-base mix augmentation,
benchmark split construction, and segmentation metrics.
"""

import os

# Every cosine is a per-pair np.vecdot; the only BLAS calls left are 1-D dot/norm and
# simulate's small QR, so OpenBLAS's idle workers would only spin (a caller's value wins).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .scene import (
    ClassSchema,
    PointCloudScene,
    VoxelConfig,
    voxelize,
)
from .scene_io import (
    load_manifest,
    load_scene,
    load_support,
    save_manifest,
    save_scene,
    save_support,
)
from .embeddings import (
    SyntheticFeatureProvider,
    SyntheticProviderConfig,
    FileFeatureProvider,
    class_anchors,
    load_embeddings,
    save_embeddings,
)
from .prototypes import (
    PrototypeSet,
    SupportSet,
    SupportShot,
    cosine,
    masked_pool,
    support_prototypes,
)
from .selection import SelectionConfig, ps_refine
from .infill import InfillConfig, adaptive_set, context_prototypes, infill
from .pipeline import RefineReport, refine_labels
from .mix import MixConfig, corners_xy, crop_novel, mix, pick_pair
from .benchmark import (
    ClassStat,
    ClassStats,
    SplitSpec,
    build_split,
    class_stats,
)
from .metrics import (
    ConfusionMatrix,
    MetricSummary,
    QualityReport,
    accumulate,
    harmonic_mean,
    iou_per_class,
    pseudo_label_quality,
    summary,
)
from .sim import BoxSpec, NoiseSpec, SceneSpec, corrupt_predictions, gen_scene, make_support

__version__ = "0.1.0"
