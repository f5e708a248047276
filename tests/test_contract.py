"""The argument contract of the public API, fuzzed (needs hypothesis).

Every public function and validating constructor is called with valid
arguments, drawn as the property tests draw them, of which one or two are
replaced by one of: NaN, +-inf, -0.0, a bool, a numpy scalar, a 0-d array,
an integer from 2**63 up, or for an index a float.  Each call succeeds or
raises ValueError or a DoubleHopfError (errors.py), and numpy's
RuntimeWarnings are errors.  A call that succeeds returns no NaN, except
where a gain is elementwise and NaN marks an inadmissible one.

The integers are 2**63 and 2**64 + 1, past every index bound, and 2**1100,
beyond float range.  A real argument gets only the last.  A record
(HopfHopfPoint, UnfoldingParams, NormalFormCoeffs) stores what it is given,
so the type mix goes to the scalar arguments and a record field is replaced
by non-finite floats only, and by 2**1100 for an unfolding's b0 and c0.
eval_char's delay is drawn up to 1e300, where exp(-lam*tau) overflows.  Not
drawn: other large valid reals, such as a gain, a run's delay or an
amplitude coefficient of 1e300, whose arithmetic may overflow, which is
float range, not the argument contract.  Runs are short, and line_T_scan
runs in this process.
"""

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import doublehopf as dh  # noqa: E402
from doublehopf import nfde_sim  # noqa: E402
from doublehopf.errors import BoundaryCase, DoubleHopfError  # noqa: E402
from doublehopf.normalform import NormalFormCoeffs, UnfoldingParams  # noqa: E402

from conftest import EPS, MU  # noqa: E402
from test_cli import PUBLIC_NAMES  # noqa: E402

_NON_FINITE = [math.nan, math.inf, -math.inf]
_BIG = [2**63, 2**64 + 1, 2**1100]  # the last beyond float range


class _Arg(NamedTuple):
    """An argument's valid draws and the values that may replace one."""

    valid: st.SearchStrategy
    bad: st.SearchStrategy


def _real(lo, hi, non_finite=True):
    """A float in [lo, hi], or a numpy float of one.  ``non_finite=False``
    keeps NaN and inf out, for a gain that is elementwise, where they are
    admissible inputs."""
    valid = st.floats(lo, hi)
    special = [-0.0, True, False, _BIG[-1]]
    if non_finite:
        special += _NON_FINITE
    return _Arg(st.one_of(valid, valid.map(np.float64)),
                st.one_of(st.sampled_from(special), valid.map(np.array),
                          valid.map(np.float32)))


def _index(lo, hi):
    """An integer in [lo, hi], or a numpy integer of one."""
    valid = st.integers(lo, hi)
    return _Arg(st.one_of(valid, valid.map(np.int64)), st.one_of(
        st.sampled_from([True, False, 2.0, 1.5, -1, math.nan, float(lo)] + _BIG),
        valid.map(np.array)))


def _field(value):
    """A record field: its value, or a non-finite float."""
    return _Arg(st.just(value), st.sampled_from(_NON_FINITE))


def _fixed(value):
    return _Arg(st.just(value), st.just(value))


def _choice(valid, bad):
    return _Arg(st.sampled_from(valid), st.sampled_from(bad))


def _list(arg, min_size=0):
    """A short list of valid values, or one holding a bad value too."""
    return _Arg(st.lists(arg.valid, min_size=min_size, max_size=3),
                st.lists(st.one_of(arg.valid, arg.bad), min_size=1, max_size=3))


_EPS, _MU = _real(0.05, 0.6), _real(0.1, 0.9)
_GAIN = _real(-2.0, 6.0)
_SIGN = _choice(["plus", "minus"], ["up", math.nan])
_LAM = _Arg(
    st.one_of(st.complex_numbers(max_magnitude=5.0),
              st.complex_numbers(max_magnitude=5.0).map(np.complex128),
              st.lists(st.complex_numbers(max_magnitude=5.0)).map(np.array)),
    st.sampled_from([complex(math.nan, 0.0), complex(0.0, math.inf), math.inf,
                     -0.0, True, np.array(1j)] + _BIG),
)


def _case(call, *args, nan_ok=False):
    return call, args, nan_ok


def _point(hh):
    """The fields of the worked double-Hopf point, mixed as a record's."""
    return [_field(getattr(hh, f)) for f in
            ("epsilon", "mu", "k0", "tau0", "omega1", "omega2")]


def _at(hh, *fields):
    return dh.HopfHopfPoint(*fields, hh.j_plus, hh.j_minus)


def _unfolding(eps1, b0, c0, p, q, r, s):
    return UnfoldingParams(eps1, -eps1, b0, c0, np.array([p, q]), np.array([r, s]))


def _unfolding_args():
    """A case-VIa unfolding much as tests/test_ray_properties.py draws one:
    b0 >= 1 and c0 <= -1, so c0 <= -1/b0, and map entries of either sign
    over eight decades, each field mixed as a record's; b0 and c0 may also
    be an int beyond float range."""
    entry = _Arg(st.builds(lambda m, sign: sign * m, st.floats(1e-4, 1e4),
                           st.sampled_from([1.0, -1.0])),
                 st.sampled_from(_NON_FINITE))
    coupling = st.sampled_from(_NON_FINITE + _BIG[-1:])
    return [_fixed(1), _Arg(st.floats(1.0, 1e3), coupling),
            _Arg(st.floats(-1e3, -1.0), coupling)] + [entry] * 4


def _run(hh):
    """The arguments of a short run at an offset from the point: gain, delay,
    x0, y0, h_div, t_end, transient."""
    return [_real(hh.k0 - 0.2, hh.k0 + 0.2), _real(hh.tau0 - 0.2, hh.tau0 + 0.2),
            _real(-0.5, 0.5), _real(-0.5, 0.5), _index(4, 40),
            _real(1.0, 30.0), _real(0.0, 0.9)]


def _config(formulation):
    def make(k, tau, x0, y0, h_div, t_end, transient):
        return dh.SimConfig(dh.SystemParams(EPS, MU, k, tau), x0, y0, h_div,
                            t_end, transient, formulation)
    return make


def _cases(hh, basis, lines, traj, sec):
    """name -> (call, argument draws, whether a NaN in the result is the
    design) for every public callable that takes an argument to check."""
    theta, neutral = _config("theta_form"), _config("neutral_form")
    unfold = _unfolding_args()
    return {
        "AmplitudeState": _case(dh.AmplitudeState, _real(0, 2), _real(0, 2)),
        "SimConfig": _case(theta, *_run(hh)),
        "SystemParams": _case(dh.SystemParams, _EPS, _MU, _GAIN, _real(0, 12)),
        "bilinear_form": _case(
            dh.bilinear_form, *map(_fixed, (basis.psi, basis.phi, basis.pieces,
                                            basis.psi_deriv))),
        "classify_section": _case(
            dh.classify_section, _fixed(sec),
            _Arg(st.one_of(st.none(), _real(-1, 1).valid), _real(-1, 1).bad)),
        "classify_unfolding": _case(
            lambda *a: dh.classify_unfolding(_unfolding(*a)), *unfold),
        "divergence_exponent": _case(
            lambda *a: dh.divergence_exponent(theta(*a[:7]), *a[7:]),
            *_run(hh), _real(1e-10, 1e-6),
            _real(2.5, 5.0), _index(50, 52)),
        "duality_residual": _case(dh.duality_residual, _fixed(basis)),
        "eigenbasis": _case(lambda *a: dh.eigenbasis(_at(hh, *a[:6]), *a[6:]),
                            *_point(hh), _field(EPS), _field(MU)),
        "equilibria": _case(dh.equilibria, *[_real(-2, 2)] * 5),
        "eval_char": _case(lambda lam, *p: dh.eval_char(lam, dh.SystemParams(*p)),
                           _LAM, _EPS, _MU, _GAIN, _real(0, 1e300)),
        "find_hopf_hopf": _case(dh.find_hopf_hopf, _EPS, _MU, _index(0, 2),
                                _index(0, 2), _real(4.0, 4.6), _real(5.0, 5.3)),
        "hopf_frequencies": _case(dh.hopf_frequencies, _EPS, _MU, _GAIN),
        "hopf_ladders": _case(dh.hopf_ladders, _EPS, _MU,
                              _Arg(st.one_of(_GAIN.valid, _list(_GAIN).valid),
                                   st.one_of(_GAIN.bad, _list(_GAIN).bad)),
                              nan_ok=True),
        "line_T_scan": _case(
            lambda *a: dh.line_T_scan(a[0], _at(hh, *a[1:7]), *a[7:]),
            _list(_real(1.0, 3.0), min_size=1), *_point(hh), _real(-0.5, 0.5),
            _real(-0.5, 0.5), _index(4, 20), _real(10.0, 20.0),
            _real(0.0, 5.0), _real(1e-10, 1e-6), _real(2.5, 5.0),
            _index(50, 52), _fixed(True)),
        "nf_coefficients": _case(
            lambda *a: dh.nf_coefficients(_at(hh, *a[:6]), *a[6:]),
            *_point(hh), _field(EPS), _field(MU)),
        "poincare": _case(dh.poincare, _fixed(traj),
                          _choice(["up", "down", "both"], ["sideways", math.nan]),
                          _real(0.0, 20.0)),
        "predict_attractor": _case(
            lambda region, *a: dh.predict_attractor(region, _unfolding(*a)),
            _index(1, 8), *unfold),
        "region_of": _case(dh.region_of, _real(-0.2, 0.2), _real(-0.2, 0.2),
                           _fixed(lines)),
        "resonance_check": _case(dh.resonance_check, _real(0.5, 1.0),
                                 _real(1.0, 2.0), _real(0.0, 1e-2)),
        "scan_hopf_curves": _case(dh.scan_hopf_curves, _EPS, _MU, _list(_GAIN),
                                  _index(0, 3), nan_ok=True),
        "simulate_amplitude": _case(
            lambda r1, r2, *a: dh.simulate_amplitude((r1, r2), a[:5], *a[5:]),
            _real(0.0, 0.5), _real(0.0, 0.5), *[_real(-2, 2)] * 5,
            _real(0.1, 2.0), _real(0.01, 0.1)),
        "simulate_neutral": _case(lambda *a: dh.simulate_neutral(neutral(*a)),
                                  *_run(hh)),
        "simulate_theta": _case(lambda *a: dh.simulate_theta(theta(*a)),
                                *_run(hh)),
        "stability_windows": _case(dh.stability_windows, _EPS, _MU, _GAIN),
        "tau_branch": _case(dh.tau_branch, _EPS, _MU, _GAIN, _SIGN, _index(0, 3)),
        "transversality_sign": _case(dh.transversality_sign, _EPS, _MU, _GAIN, _SIGN),
        "unfolding_params": _case(
            lambda *c: dh.unfolding_params(NormalFormCoeffs(*c)),
            *[_Arg(st.complex_numbers(max_magnitude=5.0),
                   st.builds(complex, st.sampled_from(_NON_FINITE),
                             st.floats(-5, 5)))] * 6),
        "via_lines": _case(lambda *a: dh.via_lines(_unfolding(*a)), *unfold),
        # the gain is elementwise: NaN and inf are inadmissible gains, whose
        # NaN coefficients hopf_ladders masks
        "w_poly": _case(dh.w_poly, _EPS, _MU,
                        _real(-2.0, 6.0, non_finite=False)),
    }


# public names that take no argument a call could get wrong: records,
# which store what they are given, and the results of the package's calls
_RECORDS = {
    "AmplitudeEquilibrium", "AttractorPrediction", "EigenBasis",
    "HopfFrequencies", "HopfHopfPoint", "HopfLadders", "NormalFormCoeffs",
    "PoincareSection", "StabilityWindows", "Trajectory", "UnfoldingParams",
    "ViaLines", "WPoly",
}
_CALLED = sorted(set(PUBLIC_NAMES) - _RECORDS)


def _has_nan(obj) -> bool:
    if dataclasses.is_dataclass(obj):
        return any(_has_nan(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return any(map(_has_nan, obj))
    if isinstance(obj, dict):
        return any(map(_has_nan, obj.values()))
    if isinstance(obj, (float, complex, np.ndarray, np.number)):
        return bool(np.isnan(obj).any())
    return False


class _Cases(dict):
    def __repr__(self):  # a falsifying example shows its draws, not these
        return "<cases>"


@pytest.fixture(scope="module")
def cases(hh, lines):
    """The cases, at a stored short run and its section; line_T_scan runs
    its scales in this process."""
    traj = dh.simulate_theta(dh.SimConfig(hh.params(0.2, 0.164), 0.1, 0.0, 50, 300.0))
    sec = dh.poincare(traj, "both", 100.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nfde_sim, "_usable_cpus", lambda: 1)
        yield _Cases(_cases(hh, dh.eigenbasis(hh, EPS, MU), lines, traj, sec))


def test_every_public_name_is_called_or_a_record(cases):
    assert sorted(cases) == _CALLED


@pytest.mark.parametrize("name", _CALLED)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_public_call_succeeds_or_raises_a_contract_error(cases, name, data):
    call, args, nan_ok = cases[name]
    values = [data.draw(a.valid) for a in args]
    for i in data.draw(st.lists(st.integers(0, len(args) - 1), min_size=1,
                                max_size=2, unique=True)):
        values[i] = data.draw(args[i].bad)
    try:
        result = call(*values)
    except (ValueError, DoubleHopfError):
        return
    assert nan_ok or not _has_nan(result), (values, result)


def _va_unfolding(c1_map, c2_map):
    """A case-VIa unfolding (d0 = -1, b0 = 1, c0 = -2, det = 1) with the
    given parameter map."""
    return UnfoldingParams(1, -1, 1.0, -2.0, np.array(c1_map), np.array(c2_map))


# Inputs that were accepted, or failed with an untyped error or a numpy
# warning, and that no table of bad arguments elsewhere takes: each is now
# a ValueError that names the argument and its value.  (The index table is
# tests/test_nfde_sim.py's _NON_INTEGER_INDEX_CALLS.)
_PROBES = {
    "HopfHopfPoint.params-alpha1-2**1100": (
        lambda hh, u: hh.params(2**1100, 0.0),
        "^alpha1 must be finite, got 1"),
    "HopfHopfPoint.params-k0-2**1100": (
        lambda hh, u: dh.HopfHopfPoint(0.1, 0.5, 2**1100, 8.8, 0.7, 0.9, 1, 1).params(),
        "^k0 must be finite, got 1"),
    "HopfHopfPoint.params-tau0-2**1100": (
        lambda hh, u: dh.HopfHopfPoint(0.1, 0.5, 4.8, 2**1100, 0.7, 0.9, 1, 1).params(),
        "^tau0 must be finite, got 1"),
    "find_hopf_hopf-k_lo-2**1100": (
        lambda hh, u: dh.find_hopf_hopf(0.1, 0.5, 1, 1, 2**1100, 5.2),
        "^k_lo must be finite, got 1"),
    "find_hopf_hopf-epsilon-2**1100": (
        lambda hh, u: dh.find_hopf_hopf(2**1100, 0.5, 1, 1, 4.5, 5.2),
        "^epsilon must be finite, got 1"),
    "transversality_sign-k-2**1100": (
        lambda hh, u: dh.transversality_sign(0.1, 0.5, 2**1100, "plus"),
        "^k must be finite, got 1"),
    "region_of-alpha1-2**1100": (
        lambda hh, u: dh.region_of(2**1100, 0.1, dh.via_lines(u)),
        "^alpha1 must be finite, got 1"),
    "via_lines-c1_map-nan": (
        lambda hh, u: dh.via_lines(_va_unfolding([math.nan, 0.0], [0.0, 1.0])),
        r"^c1_map must be finite, got np\.float64\(nan\)$"),
    "via_lines-c1_map-inf": (
        lambda hh, u: dh.via_lines(_va_unfolding([1.0, math.inf], [0.0, 1.0])),
        r"^c1_map must be finite, got np\.float64\(inf\)$"),
    "via_lines-c2_map-nan": (
        lambda hh, u: dh.via_lines(_va_unfolding([1.0, 0.0], [0.0, math.nan])),
        r"^c2_map must be finite, got np\.float64\(nan\)$"),
    "via_lines-c2_map-inf": (
        lambda hh, u: dh.via_lines(_va_unfolding([1.0, 0.0], [-math.inf, 1.0])),
        r"^c2_map must be finite, got np\.float64\(-inf\)$"),
    "unfolding_params-a11-nan": (
        lambda hh, u: dh.unfolding_params(NormalFormCoeffs(math.nan, 1, 1, 1, 1, 1)),
        "^Re a11 must be finite, got nan$"),
    "w_poly-epsilon-nan": (
        lambda hh, u: dh.w_poly(math.nan, 0.5, 4.8),
        "^epsilon must be finite, got nan$"),
    "eval_char-nan": (
        lambda hh, u: dh.eval_char(math.nan, hh.params()),
        "^lam must be finite, got nan$"),
    "eval_char-inf-part": (
        lambda hh, u: dh.eval_char(np.array([1j, complex(0.0, math.inf)]), hh.params()),
        "^lam must be finite, got inf$"),
    "char_deriv-nan": (
        lambda hh, u: dh.chareq.char_deriv(complex(math.nan, 1.0), hh.params()),
        "^lam must be finite, got nan$"),
    "eval_char-exp-overflow": (
        lambda hh, u: dh.eval_char(-0.5, dh.SystemParams(0.1, 0.5, 0.0, 2**63)),
        r"^lam = \(-0\.5\+0j\) and tau = 9223372036854775808 overflow"),
    "char_deriv-exp-overflow": (
        lambda hh, u: dh.chareq.char_deriv(
            np.array([1j, -0.5]), dh.SystemParams(0.1, 0.5, 0.0, 2**63)),
        r"^lam = \(-0\.5\+0j\) and tau = 9223372036854775808 overflow"),
}


@pytest.mark.parametrize("name", list(_PROBES))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_probe_raises_a_value_error_naming_it(hh, unfolding, name):
    call, match = _PROBES[name]
    with pytest.raises(ValueError, match=match):
        call(hh, unfolding)


@pytest.mark.parametrize("fields,match", [
    ({"b0": 2**1100}, "^b0 = 1"),
    ({"c0": 2**1100}, "^c0 = 1"),
    # numpy floats, as unfolding_params builds b0 and c0, whose product
    # leaves float range: det is inf, with no numpy warning
    ({"b0": np.float64(1e200), "c0": np.float64(-1e200)}, "^det = inf is not finite$"),
], ids=["b0", "c0", "det-numpy-product"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unfolding_field_beyond_float_range_is_a_boundary_case(fields, match):
    # an int b0 or c0 beyond float range has no sign, as a NaN one has not;
    # tests/test_normalform.py's classification table forms det itself
    u = dataclasses.replace(_va_unfolding([1.0, 0.0], [0.0, 1.0]), **fields)
    for call in (dh.classify_unfolding, dh.via_lines,
                 lambda u: dh.predict_attractor(1, u)):
        with pytest.raises(BoundaryCase, match=match):
            call(u)
