"""One-dimensional aperiodic tilings: diffraction, spectra, and invariants."""

from .cohomology import (
    CollaredAlphabet,
    DirectLimitGroup,
    cech_h1,
    collar,
    direct_limit,
    smith_normal_form,
    trace_image,
)
from .cutproject import CPParams, check_periodicity, chi, cp_word
from .diffraction import (
    DiffractionSpectrum,
    PeakScaling,
    classify_spectrum,
    fourier_amplitude,
    peak_scaling,
    structure_factor_grid,
)
from .geometry import (
    AtomChain,
    FluctuationStats,
    chain_from_rule,
    fluctuation_stats,
    positions_from_word,
)
from .groups import (
    GroupElement,
    LabelGroup,
    contains,
    nearest_element,
)
from .report import CorrespondenceReport, bloch_report, module_for_family
from .spectral import (
    EnergySpectrum,
    Gap,
    HoppingModel,
    OnsiteModel,
    TightBindingChain,
    brute_force_eigs,
    build_chain,
    bulk_gaps,
    counting_function,
    detect_gaps,
    eigenvalues_tridiag,
)
from .substitution import (
    BUILTIN_RULES,
    OccurrenceMatrix,
    PerronData,
    SubstitutionClass,
    SubstitutionRule,
    builtin_rule,
    classify_substitution,
    expand_word,
    letter_statistics,
    occurrence_matrix,
    perron_data,
    recurrence_sequence,
)

__version__ = "0.1.0"
