"""First-order ambisonics toolkit.

Encoding, decoding, rotation and sphere energy maps for 4-channel
(W, X, Y, Z) audio; spatial and semantic evaluation metrics; patchwise
saliency energy maps; scheduling patterns for 4-channel RVQ code matrices;
guided autoregressive sampling; corpus curation filters; and the bit-exact
file formats tying them together.
"""

from types import ModuleType as _ModuleType

from .code_pattern import (
    CodeMatrix,
    Group,
    Pattern,
    ReorgMatrix,
    group_of,
    pack,
    pattern_steps,
    unpack,
)
from .curation import (
    ClipWindow,
    amplitude_gate,
    fov_center,
    relevance_filter,
    segment_mask,
    select_windows,
)
from .errors import FoaToolsError
from .foa import (
    ENERGY_MODE_LINEAR,
    ENERGY_MODE_POWER,
    Direction,
    EnergyMap,
    FoaClip,
    Rotation,
    SphereGrid,
    decode_to_mono,
    directional_energy,
    encode_mono,
    energy_map,
    rotate,
)
from .guidance import GuidanceConfig, TablePredictor, combine, generate, sample_step
from .patch_saliency import energy_from_scores, patch_scores
from .semantic_metrics import GaussianStats, fad_avg, frechet_distance, gaussian_stats, kld
from .spatial_metrics import SpatialReport, auc, correlation, evaluate_windows

__version__ = "0.1.0"

# The public names are the ones bound above: no leading "_", and no submodule.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
