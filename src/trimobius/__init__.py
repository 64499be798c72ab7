"""Exact Mobius function computation for sequence-induced divisibility posets."""

import os as _os
import sys as _sys

# trimobius makes no BLAS call, but numpy's OpenBLAS starts a worker thread
# per extra core when numpy loads, and reads OPENBLAS_NUM_THREADS only then.
# So numpy is loaded here with one thread, unless it is loaded already or the
# variable is set, and the environment is then left as it was.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import (
    MagnitudeRecord,
    MagnitudeRecordTable,
    SeriesReport,
    abs_sums,
    classical_mertens,
    classical_mobius,
    estimate_C,
    magnitude_records,
    mertens_tri,
    ratio_sums_index,
    ratio_sums_triangular,
)
from .bfile import BFile, DiffReport, format_bfile, load_bfile, oeis_diff
from .exports import hasse_to_dot, matrix_to_csv
from .mobius import (
    DENSE_CAP,
    MobiusMatrix,
    MobiusVector,
    ZetaMatrix,
    invert_zeta,
    mobius_one_var,
    mobius_two_var,
    verify_inverse,
    zeta_matrix,
)
from .poset import (
    MAX_TRIANGULAR_INDEX,
    DivisibilityPoset,
    HasseGraph,
    SequenceKind,
    sequence_value,
    triangular_index,
)
from .props import PropositionVerdict, prop1_check, prop2_check, scan_range
from .svg import svg_heatmap, svg_line_chart

__version__ = "0.1.0"

__all__ = [
    "BFile",
    "DENSE_CAP",
    "DiffReport",
    "DivisibilityPoset",
    "HasseGraph",
    "MAX_TRIANGULAR_INDEX",
    "MagnitudeRecord",
    "MagnitudeRecordTable",
    "MobiusMatrix",
    "MobiusVector",
    "PropositionVerdict",
    "SequenceKind",
    "SeriesReport",
    "ZetaMatrix",
    "abs_sums",
    "classical_mertens",
    "classical_mobius",
    "estimate_C",
    "format_bfile",
    "hasse_to_dot",
    "invert_zeta",
    "load_bfile",
    "magnitude_records",
    "matrix_to_csv",
    "mertens_tri",
    "mobius_one_var",
    "mobius_two_var",
    "oeis_diff",
    "prop1_check",
    "prop2_check",
    "ratio_sums_index",
    "ratio_sums_triangular",
    "scan_range",
    "sequence_value",
    "svg_heatmap",
    "svg_line_chart",
    "triangular_index",
    "verify_inverse",
    "zeta_matrix",
]
