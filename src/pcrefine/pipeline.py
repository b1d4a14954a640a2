"""Full refinement pipeline: selection followed by adaptive infilling,
with a per-scene report of what was kept, filtered, and infilled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .infill import InfillConfig, _infill, adaptive_set
from .prototypes import PrototypeSet
from .scene import ClassSchema
from .selection import SelectionConfig, _select_and_merge


@dataclass
class RefineReport:
    class_agreement: dict[int, float] = field(default_factory=dict)
    kept_classes: list[int] = field(default_factory=list)
    filtered_classes: list[int] = field(default_factory=list)
    selected_points: int = 0
    infilled_points: int = 0

    def to_dict(self) -> dict:
        return {
            "class_agreement": {str(c): v for c, v in sorted(self.class_agreement.items())},
            "kept_classes": self.kept_classes,
            "filtered_classes": self.filtered_classes,
            "selected_points": self.selected_points,
            "infilled_points": self.infilled_points,
        }


def refine_labels(
    features: np.ndarray,
    raw: np.ndarray,
    base_labels: np.ndarray,
    support: PrototypeSet,
    schema: ClassSchema,
    selection_cfg: SelectionConfig | None = None,
    infill_cfg: InfillConfig | None = None,
) -> tuple[np.ndarray, RefineReport]:
    """Refine raw predictions into training labels: select, merge, infill."""
    selection_cfg = selection_cfg or SelectionConfig()
    infill_cfg = infill_cfg or InfillConfig()

    y_prime, agreement, kept, context = _select_and_merge(
        features, raw, base_labels, support, selection_cfg, schema
    )

    # context is context_prototypes(features, y_prime, schema), pooled with the
    # predicted prototypes; y_prime holds checked labels: the unchecked core of infill.
    adaptive = adaptive_set(context, support, schema)
    y_final, n_assigned = _infill(y_prime, np.asarray(features), adaptive, infill_cfg.delta)

    report = RefineReport(
        class_agreement=agreement,
        kept_classes=kept,
        filtered_classes=[c for c in sorted(agreement) if c not in kept],
        # A novel label in y_prime is exactly a kept raw label on base background.
        selected_points=int((y_prime >= schema.n_base).sum()),
        infilled_points=n_assigned,
    )
    return y_final, report
