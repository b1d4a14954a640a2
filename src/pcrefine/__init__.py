"""pcrefine: point-cloud pseudo-label refinement toolkit.

Fuses dense but noisy per-point class predictions with sparse, accurate
few-shot support samples via prototype-guided selection and adaptive
infilling, plus a context-preserving novel-base mix augmentation,
benchmark split construction, and segmentation metrics.
"""

from .scene import (
    ClassSchema,
    PointCloudScene,
    VoxelConfig,
    voxelize,
)
from .scene_io import load_scene, save_scene, load_manifest, save_manifest
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
from .selection import (
    SelectionConfig,
    merge_into_background,
    ps_refine,
)
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
