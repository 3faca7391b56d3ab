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
from .cutproject import CPParams, check_periodicity, cp_word
from .diffraction import (
    DiffractionSpectrum,
    PeakScaling,
    classify_spectrum,
    peak_scaling,
    structure_factor_grid,
)
from .geometry import AtomChain, chain_from_rule, positions_from_word
from .groups import GroupElement, LabelGroup, nearest_element
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
    SubstitutionRule,
    builtin_rule,
    expand_word,
    occurrence_matrix,
    perron_data,
)

__version__ = "0.1.0"
