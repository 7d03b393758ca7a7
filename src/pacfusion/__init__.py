"""Point cloud / image feature fusion with attentive continuous convolution."""

from .types import Box3D, FeatureMap, FusionDims, PointCloud
from .kitti import CalibrationSet, FormatError
from .kdtree import KdTree, NeighborSet, knn_brute, knn_query
from .geometry import (
    PixelCoords,
    RegionOfInterest,
    filter_region,
    lidar_to_camera,
    points_in_box,
    project_points,
    subsample,
)
from .fusion import (
    FusedFeatures,
    MlpSpec,
    NeighborFeatures,
    PacfParams,
    assemble_neighbors,
    fuse_cloud,
    init_params,
    load_params,
    pacf_backward,
    pacf_forward,
    retrieve_features,
    save_params,
)
from .losses import (
    BACKGROUND,
    FOREGROUND,
    UNSUPERVISED,
    SparseMask,
    focal_loss,
    label_points,
    make_sparse_mask,
)

__version__ = "0.1.0"
