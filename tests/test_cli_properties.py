"""Property tests of the CLI's config handling and number formatter
(need hypothesis)."""

import argparse
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from doublehopf.cli import _fmt17, build_parser, main  # noqa: E402

from conftest import format_cases  # noqa: E402


def _analyze_keys():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted(a.dest for a in sub.choices["analyze"]._actions
                  if a.option_strings and a.dest != "out")


_VALUES = st.one_of(
    st.text(),
    st.floats().map(repr),
    st.integers(-10, 10**6).map(str),
    st.tuples(st.floats(-20, 20), st.floats(-20, 20)).map(lambda p: f"{p[0]}:{p[1]}"),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.sampled_from(_analyze_keys()), _VALUES, max_size=3))
def test_analyze_config_succeeds_or_reports_json(values):
    # any text for any analyze key: a report, or a JSON error; no traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "any.cfg"), Path(tmp, "report.json")
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()),
                       encoding="utf-8")
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(["--config", str(cfg), "analyze", "--out", str(out)])
        if code == 0:
            assert "k0" in json.loads(out.read_text())
        else:
            assert code in (1, 2)
            err = json.loads(text.getvalue().strip().splitlines()[-1])
            assert set(err) >= {"error", "message"}


def _assert_fmt17_is_format_spec(vals):
    vals = np.asarray(vals, dtype=np.float64)
    text = _fmt17(vals)
    assert text.shape == (len(vals), 24) and text.dtype == np.uint8
    # the text is contiguous: the NULs are padding only
    got = [bytes(row).strip(b"\0").decode() for row in text]
    want = [format(v, ".17g") for v in vals.tolist()]
    bad = [(v, g, w) for v, g, w in zip(vals.tolist(), got, want) if g != w]
    assert not bad, (len(bad), bad[:5])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(), st.floats(1e-5, 1e18), st.floats(-1e18, -1e-5)),
                max_size=40))
def test_fmt17_matches_format_spec(vals):
    # st.floats() draws nan, +-inf, +-0 and subnormals too; the bounded
    # strategies fill the fixed-notation range, d in [-4, 16], and its edges
    _assert_fmt17_is_format_spec(vals)


def _around(x, steps=60):
    """x and the ``steps`` doubles on either side of it."""
    out = [x]
    lo = hi = x
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def test_fmt17_decade_edges():
    # log10 misses the decade by one next to a power of ten, where the
    # text also switches between fixed and scientific notation at 1e-4
    # and 1e17
    vals = [v for k in range(-6, 19) for v in _around(float(f"1e{k}"))]
    _assert_fmt17_is_format_spec(vals + [-v for v in vals])


def test_fmt17_rounds_ties_to_even():
    # m / 2**17 has 17 decimals, so in [1, 10) every odd m is a tie at
    # 17 significant digits
    vals = np.arange(1, 2**21, 11) / 2.0**17
    _assert_fmt17_is_format_spec(np.concatenate([vals, -vals]))


def test_fmt17_format_cases():
    _assert_fmt17_is_format_spec(format_cases())
