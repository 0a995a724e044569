"""blockbg: block-based background modeling and moving-object detection.

Build a static reference background from a grayscale frame sequence by
settling it block by block with one of four interchangeable similarity
scores (absolute difference, entropy delta, quantized XOR, DCT features),
subtract it to get foreground masks, and extract validated moving objects.
Includes a synthetic benchmark that compares all four methods with exact
ground truth.
"""

__version__ = "0.1.0"

from .background import (
    BackgroundModel,
    backfill,
    build_srbi,
    coverage,
    load_model,
    save_model,
    update_srbi,
)
from .bench import (
    BenchRow,
    Metrics,
    Mover,
    Scene,
    SceneSpec,
    bench_methods,
    box_iou,
    evaluate,
    gen_scene,
    reference_scene,
)
from .blocks import (
    BlockGrid,
    entropy_of,
    make_grid,
    select_grid,
)
from .comparators import (
    ComparatorConfig,
    Method,
    dct2,
    default_config,
    zigzag_indices,
)
from .errors import PipelineError
from .foreground import (
    DetectedObject,
    ForegroundMask,
    connected_components,
    make_mask,
    median_filter_mask,
    subtract,
)
from .imaging import Frame, load_frame, load_sequence, prefilter, save_frame
from .pipeline import PipelineParams, detect_frame, resolve_grid, run_detection
from .validation import (
    HeuristicParams,
    classify_all,
    validate,
)
