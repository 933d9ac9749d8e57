"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from treecascade import CorrelationSummary, correlation_from_covariance


def random_spd_covariance(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric positive-definite covariance via a factor square."""
    factors = rng.standard_normal((d, d + 2))
    cov = factors @ factors.T + 0.1 * np.eye(d)
    return (cov + cov.T) / 2.0


def random_correlation(d: int, rng: np.random.Generator) -> CorrelationSummary:
    """Random valid correlation matrix (normalized SPD covariance)."""
    return correlation_from_covariance(random_spd_covariance(d, rng))


# Cells the validating parser and numpy's C reader could read differently:
# float()'s wider grammar, quotes, comment marks, non-finite values, empty
# cells, and whitespace that one strips and the other does not.
CSV_HAZARD_CELLS = (
    "nan", "inf", "-inf", "1e400", "1_0", "#", "2 #x", '"1"', '"1,2"', "", " ", " 1 ",
    "\t2\t", "\x1c3", "\xa04", "١", "+.5", "1.", "-0.0", "0x1p3", "1e", "1\x00",
)
CSV_HAZARDS = (
    "cell", "blank line", "space line", "ragged row", "trailing comma", "bare CR",
    "leading blank line", "duplicate name", "name over two lines",
)


@st.composite
def csv_texts(draw) -> str:
    """A plain numeric CSV with up to two hazards put in.

    The hazards are a cell from ``CSV_HAZARD_CELLS``, a blank,
    whitespace-only or ragged row, a trailing comma, a bare CR line break,
    a leading blank line, and a duplicate or two-line header name.  Files
    end with LF or CRLF, blank lines, or no final newline.
    """
    d = draw(st.integers(1, 3))
    header = draw(
        st.lists(st.sampled_from(["a", "b", " c ", '"d"']), min_size=d, max_size=d, unique=True)
    )
    plain = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-(10**6), 10**6).map(str),
        st.floats(-1e4, 1e4).map(lambda x: f"{x:.2f}"),
    )
    lines = [",".join(draw(plain) for _ in range(d)) for _ in range(draw(st.integers(0, 6)))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    breaks = [end] * len(lines)  # the line break before each line
    lead = ""
    for hazard in draw(st.lists(st.sampled_from(CSV_HAZARDS), max_size=2)):
        if hazard == "bare CR" and lines:
            breaks[draw(st.integers(0, len(lines) - 1))] = "\r"
        elif hazard == "leading blank line":
            lead = end
        elif hazard == "duplicate name" and d > 1:
            header[-1] = header[0]
        elif hazard == "name over two lines":
            # closed, or left open so that the rest of the file is the name
            header[-1] = draw(st.sampled_from(['"e\n1"', '"e']))
        elif hazard in ("cell", "blank line", "space line", "ragged row", "trailing comma"):
            cells = [draw(plain) for _ in range(d)]
            if hazard == "cell":
                cells[draw(st.integers(0, d - 1))] = draw(st.sampled_from(CSV_HAZARD_CELLS))
            elif hazard == "blank line":
                cells = []
            elif hazard == "space line":
                cells = [draw(st.sampled_from([" ", "\t", "  "]))]
            elif hazard == "ragged row":
                cells = cells[1:] if draw(st.booleans()) else cells + cells[:1]
            else:
                cells.append("")
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, ",".join(cells))
            breaks.insert(at, end)
    text = lead + ",".join(header)
    for line_break, line in zip(breaks, lines):
        text += line_break + line
    return text + draw(st.sampled_from(["", end, end * 2, end + " " + end]))
