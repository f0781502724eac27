"""Unsupervised SAR change detection.

Pipeline: log-ratio difference image -> clustering into pseudo-labels ->
region-constrained propagation to clean label noise -> patch-sampled
convolution feature stack -> linear SVM -> change map and metrics.
"""

from .difference import log_ratio_di
from .errors import (
    ChangeDetectionError,
    ConvergenceError,
    DegenerateTrainingError,
    FormatError,
    ParameterError,
    PipelineStageError,
    ShapeError,
    TruncationError,
)
from .labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from .metrics import (
    ConfusionCounts,
    MetricReport,
    confusion,
    evaluate,
    f1,
    kappa,
    pcc,
    roc_auc,
)
from .patch_features import (
    KernelSet,
    conv_layer,
    pca_reduce,
    select_kernels,
    stack_features,
)
from .pipeline import (
    ABLATION_ROWS,
    PipelineConfig,
    PipelineResult,
    run_pipeline,
    run_synth_bench,
)
from .preclassify import kmeans_cluster, preclassify_di, sample_training
from .propagation import build_transition, clean_labels, propagate
from .raster import Raster, load_raster, save_raster
from .seeds import derive_seed
from .superpixels import RegionMap, segment_superpixels
from .svm import SvmModel, build_samples, predict_map, train_svm
from .synth import (
    SceneSpec,
    change_truth,
    default_scene,
    gen_pair,
    load_scene,
    reflectance_fields,
    write_scene,
)

__version__ = "0.1.0"
