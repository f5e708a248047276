"""Property tests of the CLI's config handling (need hypothesis)."""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from doublehopf.cli import build_parser, main  # noqa: E402


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
