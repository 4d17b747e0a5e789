"""cocmap: occurrence/co-occurrence matrix construction and mapping.

The package distinguishes symmetric proximity matrices, which can be scaled
directly, from asymmetric documents x attributes matrices, which must be
normalized (Pearson, cosine, Jaccard, or Euclidean column comparison) before
mapping.  Mapping backends: SMACOF multidimensional scaling at ratio,
interval, or ordinal level; principal-component factor analysis with varimax
rotation; and Kamada-Kawai spring embedding with Pajek/SVG export.
"""

from .errors import (
    AsymmetricInput,
    CocmapError,
    CountOverflow,
    DegenerateConfiguration,
    DegenerateInput,
    DimensionTooLarge,
    DuplicateDocId,
    LabelMismatch,
    MalformedLine,
    NegativeCount,
    NegativeResult,
    OutOfRange,
    UnknownDataset,
    ZeroNormColumn,
    ZeroVarianceColumn,
)
from .factor import (
    LoadingsMatrix,
    eigen_symmetric,
    factor_scatter_coords,
    format_loadings,
    loadings_to_csv,
    pca_from_correlation,
    pca_from_occurrence,
    varimax,
)
from .ingest import (
    builtin_dataset,
    parse_records,
    parse_rectangular_matrix,
    parse_square_matrix,
    serialize_records,
    serialize_rectangular_matrix,
    serialize_square_matrix,
)
from .layout import (
    LayoutResult,
    WeightedGraph,
    export_pajek,
    export_svg,
    graph_from_cooccurrence,
    import_pajek,
    kamada_kawai,
    shortest_path_lengths,
)
from .matrices import (
    CooccurrenceMatrix,
    OccurrenceMatrix,
    ProximityMatrix,
    affiliations,
    binarize,
    cooccurrence,
)
from .mds import (
    Configuration,
    MdsConfig,
    classical_init,
    mds,
    monotone_regression,
    procrustes_align,
    transform_disparities,
)
from .proximity import (
    cosine_columns,
    euclidean_columns,
    jaccard_columns,
    pearson_columns,
    pearson_of_proximities,
    shift_pearson,
    to_dissimilarity,
)

__version__ = "0.1.0"
