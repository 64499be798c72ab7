"""Exact Mobius function computation for sequence-induced divisibility posets."""

from importlib import import_module as _import_module

# Each public name -> the module that defines it.  A name is imported from
# its module when it is first read (PEP 562), so import trimobius loads
# neither numpy nor any module of the package.
_HOME = {
    **dict.fromkeys(["MagnitudeRecord", "MagnitudeRecordTable", "SeriesReport", "abs_sums",
                     "classical_mertens", "classical_mobius", "estimate_C", "magnitude_records",
                     "mertens_tri", "ratio_sums_index", "ratio_sums_triangular"], "analysis"),
    **dict.fromkeys(["BFile", "DiffReport", "format_bfile", "load_bfile", "oeis_diff"], "bfile"),
    **dict.fromkeys(["hasse_to_dot", "matrix_to_csv"], "exports"),
    **dict.fromkeys(["DENSE_CAP", "MobiusMatrix", "MobiusVector", "ZetaMatrix", "invert_zeta",
                     "mobius_one_var", "mobius_two_var", "verify_inverse", "zeta_matrix"],
                    "mobius"),
    **dict.fromkeys(["MAX_TRIANGULAR_INDEX", "DivisibilityPoset", "HasseGraph", "SequenceKind",
                     "sequence_value", "triangular_index"], "poset"),
    **dict.fromkeys(["PropositionVerdict", "prop1_check", "prop2_check", "scan_range"], "props"),
    **dict.fromkeys(["svg_heatmap", "svg_line_chart"], "svg"),
}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name, or a module of the package, imported on its first read and then kept."""
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _HOME.values():
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
