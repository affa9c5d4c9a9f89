"""Random Steiner complexes: sampling, spectra, spanning-tree counts, limit laws."""

from .complexes import (
    Face,
    NeighborhoodComplex,
    PureComplex,
    all_faces,
    ball,
    complete_complex,
    complex_from_dfaces,
    facets_of,
    read_complex,
    write_complex,
)
from .sampling import (
    SamplerExhausted,
    SeededRng,
    is_admissible,
    sample_greedy,
    sample_matching,
    sample_sts,
    steiner_complex,
)
from .arboreal import (
    LayerProfile,
    arboreal_fractions,
    is_arboreal_ball,
    layer_sizes,
    signed_walk_count,
)
from .spectra import (
    SpectralSummary,
    adjacency_matrix,
    laplacian_matrix,
    moments,
    signed_trace,
    spectral_summary,
    trivial_zero_count,
)
from .trees import (
    TreeCount,
    tree_count_exact,
    weighted_tree_count,
)
from .limitlaw import (
    LimitLaw,
    growth_constant_chebyshev,
    growth_constant_closed,
    growth_constant_quadrature,
    series_coefficient,
)

__version__ = "0.1.0"
