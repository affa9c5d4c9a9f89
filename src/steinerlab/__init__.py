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
    InclusionReport,
    SamplerExhausted,
    SeededRng,
    SteinerSystem,
    inclusion_frequency_test,
    is_admissible,
    sample_greedy,
    sample_matching,
    sample_sts,
    steiner_complex,
)
from .arboreal import (
    ArborealBall,
    LayerProfile,
    arboreal_ball,
    arboreal_fraction,
    arboreal_fractions,
    is_arboreal_ball,
    layer_sizes,
    signed_walk_count,
)
from .spectra import (
    SpectralSummary,
    adjacency_matrix,
    eigenvalues,
    esd,
    laplacian_matrix,
    moments,
    signed_trace,
    spectral_summary,
    trivial_zero_count,
)
from .trees import (
    SnfDiagonal,
    TreeCount,
    smith_normal_form,
    tree_count_exact,
    tree_growth_rate,
    weighted_tree_count,
)
from .limitlaw import (
    ChebyshevPlan,
    LimitLaw,
    chebyshev_t,
    growth_constant_chebyshev,
    growth_constant_closed,
    growth_constant_quadrature,
    series_coefficient,
    series_coefficient_projection,
)

__version__ = "0.1.0"
