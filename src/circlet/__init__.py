"""Wavelet analysis on the circle and the real line, built from the
two-by-two real matrix group that acts on both.

The circle chart is the open arc (-pi/2, pi/2); dilations act through the
tangent, translations are rigid rotations, and the admissibility machinery
in `cwt` turns any well-decaying chart signal into a reconstruction frame.
`line` carries the flat counterpart, `euclid` the bridge between the two,
and `laguerre` the discrete-series realization on the half-line with its
integral transform to the half-plane.

Setting CIRCLET_THREADS to a positive integer caps the BLAS thread pools,
also an OpenBLAS that numpy loaded before circlet was imported.  The
default OPENBLAS_THREAD_TIMEOUT=4 makes idle OpenBLAS threads sleep at
once instead of spinning; it takes effect when circlet is imported before
numpy.  THREAD_CAP is the cap applied, else None.
"""

import os as _os

# the BLAS libraries read these once, when numpy first loads them; a bad
# value applies no cap and is left for the command line to refuse
try:
    THREAD_CAP = int(_os.environ["CIRCLET_THREADS"])
except (KeyError, ValueError):
    THREAD_CAP = 0
if THREAD_CAP < 1:
    THREAD_CAP = None
else:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_var] = str(THREAD_CAP)
# OpenBLAS otherwise keeps each idle thread spinning for 2^28 cycles (about
# 0.1 s) once it loads and after every call.  circlet's BLAS calls are lone
# matrix-vector products, so the spin only burns a core; in a short CLI
# process it costs as much CPU as the transform.  4 is the shortest spin
# OpenBLAS accepts; a value the caller set is kept.
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

_bound_before = set(globals())
from .circle import (
    CircleGrid,
    CircleSignal,
    RepParams,
    casimir_apply,
    dilate_angle,
    generator,
    multiplier,
    reduce_half_angle,
    rep_action,
    trig_interpolate,
)
from .cwt import (
    AdmissibilityReport,
    FourierCoeffs,
    ScaleGrid,
    Scalogram,
    analyze,
    default_scale_grid,
    dilated_coeffs,
    fourier_coeffs,
    frame_bounds,
    lambda_sequence,
    make_dog,
    mode_synthesis,
    reanalysis_error,
    synthesize,
    wavelet_fingerprint,
    weak_admissibility,
)
from .errors import (
    AliasingError,
    CircletError,
    DecayError,
    FormatError,
    GridMismatchError,
    SupportEscapeError,
)
from .euclid import (
    ContractionParams,
    check_intertwining,
    contract_point,
    euclidean_limit_error,
    i_r_inverse,
    i_r_map,
    smooth_bump,
    stereo_lift,
    stereo_project,
)
from .io import (
    atomic_write_text,
    read_report,
    read_scalogram,
    read_signal,
    report_to_dict,
    write_report,
    write_scalogram,
    write_signal,
)
from .laguerre import (
    LaguerreBasisSpec,
    QuadratureConvergenceWarning,
    gauss_laguerre_gram,
    genlaguerre,
    halfplane_basis,
    laguerre_basis,
    laguerre_function,
    laplace_kernel,
    laplace_kernel_series,
    laplace_transform,
    rplus_generators,
)
from .line import (
    LineAdmissibility,
    LineGrid,
    LineScaleGrid,
    LineScalogram,
    LineSignal,
    LogGrid,
    RPlusFunction,
    affine_action,
    dilated_spectra,
    line_admissibility,
    line_analyze,
    line_synthesize,
    mexican_hat,
    rplus_action,
    spectrum,
)
from .sl2r import (
    AffineElement,
    GroupElement,
    Sl2Matrix,
    affine_compose,
    affine_embed,
    compose,
    haar_weight,
    inverse,
    iwasawa_decompose,
    matrix,
    reduce_angle,
)

# the public names: what this import block binds, less the submodules it binds too
__all__ = sorted(name for name, value in globals().items() if name not in _bound_before
                 and not name.startswith("_") and not isinstance(value, type(_os)))
del _bound_before


def _cap_loaded_openblas(cap: int) -> None:
    """Set the thread count of every OpenBLAS already mapped into this process.

    OpenBLAS reads OPENBLAS_NUM_THREADS only when it loads, so a numpy
    imported before circlet would otherwise keep its default pool.  Nothing
    happens where no OpenBLAS is loaded or /proc/self/maps cannot be read.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                    "openblas_set_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = None, [ctypes.c_int]
                fn(cap)
                break


if THREAD_CAP is not None:
    _cap_loaded_openblas(THREAD_CAP)

__version__ = "0.1.0"
