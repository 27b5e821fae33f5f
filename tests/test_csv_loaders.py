"""The CLI's CSV loaders against their original csv.reader + float() loops.

On every file both loaders must either give byte-equal arrays or raise the
same exception class with the same ``path:line`` prefix as the oracles in
``tests/oracles.py``.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import navae.cli as cli
from navae.cli import load_mean_csv, load_ols_csv
from navae.errors import ConfigError, DataError
from oracles import load_mean_csv_oracle, load_ols_csv_oracle


def outcome(load, path, *args):
    """The loaded arrays as bytes, or the error class and its ``path:line`` prefix."""
    try:
        loaded = load(path, *args)
    except Exception as exc:  # noqa: BLE001 - the class itself is compared
        message = str(exc)
        prefix = message.split(" ")[0] if message.startswith(str(path)) else ""
        return type(exc), prefix
    if hasattr(loaded, "values"):
        return (loaded.values.tobytes(),)
    return loaded.x.tobytes(), loaded.y.tobytes(), loaded.u.tobytes()


def assert_same_as_oracle(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(load_mean_csv, path) == outcome(load_mean_csv_oracle, path)
    # a direction that fits the header, so both loaders get to the rows
    p_file = max(1, re.split(r"\r\n|\r|\n", text)[0].count(","))
    for intercept in (False, True):
        u = ",".join(["1"] * (p_file + intercept))
        assert outcome(load_ols_csv, path, intercept, u) == outcome(
            load_ols_csv_oracle, path, intercept, u
        )


CASES = {
    "header-and-blank-rows": "x\n1\n\n2\n\n",
    "whitespace-only-row": "1\n \n2\n",
    "tab-only-row": "1\n\t\n2\n",
    "comma-only-row": "1\n,,\n2\n",
    "ols-comma-only-row": "y,x1,x2\n1,2,3\n,,\n4,5,6\n",
    "ols-blank-cells-row": "y,x1,x2\n1,2,3\n , ,\t\n4,5,6\n",
    "empty-quoted-cell": '""\n1\n',
    "ols-empty-quoted-cell": 'y,x1\n1,""\n',
    "text-after-closing-quote": '"1"2\n',
    "quoted-padded-number": '" 1 "\n',
    "ols-quoted-cells": 'y,x1\n"1",3\n" 2 ","4"\n',
    "trailing-comma": "1,\n2,\n",
    "ols-trailing-comma": "y,x1\n1,\n",
    "crlf": "x\r\n1\r\n2\r\n",
    "ols-crlf": "y,x1\r\n1,2\r\n3,4\r\n",
    "bare-cr": "x\r1\r2\r",
    "ols-bare-cr": "y,x1\r1,2\r3,4",
    "tab-around-number": "\t1\t\n2\n",
    "vertical-tab-around-number": "\x0b1\x0b\n2\n",
    "ols-tab-around-cells": "y,x1\n\t1\t,\x0b2\x0b\n",
    "underscore": "1_000\n2\n",
    "ols-underscore": "y,x1\n1_000,2\n",
    "arabic-indic-digit": "\u0661\n2\n",
    "ols-arabic-indic-digit": "y,x1\n\u0661,2\n",
    "nan": "nan\n1\n",
    "inf": "1\ninf\n",
    "ols-nan": "y,x1\nnan,1\n2,3\n",
    "overflow": "1e400\n",
    "underflow": "1e-400\n4.9e-324\n",
    "upper-case-header": "X\n1\n2\n",
    "padded-header": " x \n1\n",
    "header-on-line-2": "1\nx\n2\n",
    "header-after-blank-line": "\nx\n1\n",
    "header-with-extra-cells": "x,comment\n1,a\n2,b\n",
    "ols-header-case-and-blanks": "Y, X1 ,x2\n1,2,3\n",
    "ols-bad-header": "y,x2\n1,2\n",
    "bom-header": "\ufeffx\n1\n",
    "bom-number": "\ufeff1\n2\n",
    "ols-bom-header": "\ufeffy,x1\n1,2\n",
    "space-inside-number": "1 2\n",
    "hash-inside-number": "1#2\n",
    "oops-at-line-1": "oops\n1\n",
    "oops-at-line-3": "1\n2\noops\n",
    "ols-oops-at-line-3": "y,x1\n1,2\n3,oops\n",
    "only-first-column-read": "1,a\n2,b,c\n3\n",
    "quoted-newline-in-later-column": 'x,"a\nb"\n1,"c\nd"\n2\n',
    "ols-ragged-short": "y,x1\n1,2\n3\n",
    "ols-ragged-long": "y,x1\n1,2\n3,4,5\n",
    "ols-every-row-too-wide": "y,x1\n1,2,3\n4,5,6\n",
    "empty-file": "",
    "blank-lines-only": "\n\n\r\n",
    "mean-header-only": "x\n",
    "ols-header-only": "y,x1,x2\n\n",
    # float() strips \x1c-\x1f only from a cell that holds a non-ASCII character
    "separator-around-first-cell": "\x1c1\x1f\n2\n",
    "ols-separator-around-cell": "y,x1\n\x1c1,2\n",
    "ols-separator-in-non-ascii-cell": "y,x1\n\x1c1\xa0,2\n",
    "non-ascii-space-around-number": "\xa01\u3000\n2\u2028\n",
}


@pytest.mark.parametrize("text", list(CASES.values()), ids=list(CASES))
def test_loaders_match_oracle(tmp_path, text):
    assert_same_as_oracle(tmp_path / "data.csv", text)


def test_loaders_match_oracle_at_scale(tmp_path, monkeypatch):
    rng = np.random.default_rng(20)
    values = rng.standard_normal((20_000, 3)) * 10.0 ** rng.integers(-20, 20, (20_000, 3))
    mean_path = tmp_path / "mean.csv"
    mean_path.write_text("x\n" + "\n".join(repr(float(v)) for v in values[:, 0]) + "\n")
    ols_path = tmp_path / "ols.csv"
    ols_path.write_text(
        "y,x1,x2\n" + "\n".join(",".join(repr(float(v)) for v in row) for row in values) + "\n"
    )
    expected_mean = outcome(load_mean_csv_oracle, mean_path)
    expected_ols = outcome(load_ols_csv_oracle, ols_path, True, "0,1,0")

    def no_row_loop(*args):
        raise AssertionError("numpy's reader refused a plain file")

    monkeypatch.setattr(cli, "_read_rows", no_row_loop)
    assert outcome(load_mean_csv, mean_path) == expected_mean
    assert outcome(load_ols_csv, ols_path, True, "0,1,0") == expected_ols


@pytest.mark.parametrize(
    ("text", "load", "args", "message"),
    [
        ("", load_mean_csv, (), "no numeric rows"),
        ("x\n", load_mean_csv, (), "no numeric rows"),
        ("", load_ols_csv, (False, "1"), "empty file"),
        ("y,x1\n\n", load_ols_csv, (False, "1"), "no data rows"),
    ],
)
def test_no_rows_is_data_error_without_warning(tmp_path, text, load, args, message):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=message):
            load(path, *args)


def test_direction_checked_before_rows(tmp_path, monkeypatch):
    path = tmp_path / "ols.csv"
    path.write_text("y,x1,x2\n1,2,3\noops\n")

    def no_rows(*args):
        raise AssertionError("rows read before the direction was checked")

    monkeypatch.setattr(cli, "_read_floats", no_rows)
    with pytest.raises(ConfigError, match="direction u has 2 coordinates but the design has 3"):
        load_ols_csv(path, True, "0,1")
    with pytest.raises(ConfigError, match="cannot parse vector"):
        load_ols_csv(path, True, "0,a,1")


_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(
        ["", "nan", "-inf", "1e400", "1_000", "\u0661", "0x1", ".5", "5.", "x", "X", "oops", "1 2",
         "1#2", "+1e-3"]
    ),
)
_PADS = st.sampled_from(["", "", " ", "\t", "\x0b", "\x0c", "\xa0", "\x1c", "\x1f", "\x85", "\u3000"])


@st.composite
def _cells(draw):
    cell = draw(_PADS) + draw(_TOKENS) + draw(_PADS)
    quoting = draw(st.sampled_from(["", "", "", "quoted", "tail", "open"]))
    if quoting == "quoted":
        return f'"{cell}"'
    if quoting == "tail":
        return f'"{cell}"2'
    return cell + '"' if quoting == "open" else cell


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 3))
    header = draw(
        st.sampled_from(["", "x", " X ", "y," + ",".join(f"x{i}" for i in range(1, width)), "y,x1"])
    )
    rows = draw(
        st.lists(
            st.one_of(
                st.lists(_cells(), min_size=width, max_size=width).map(",".join),
                st.lists(_cells(), min_size=1, max_size=4).map(",".join),
                st.sampled_from(["", " ", ",,", '""']),
            ),
            max_size=6,
        )
    )
    lines = ([header] if header else []) + rows
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@given(text=_csv_texts())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_loaders_match_oracle_on_generated_files(tmp_path, text):
    assert_same_as_oracle(tmp_path / "generated.csv", text)
