import numpy as np
from hypothesis import given, settings, strategies as st

from ndflab import _csv

# values where a .17g formatter can go wrong: signed zeros, subnormals, both
# neighbours of each power of ten (where the exponent, and with it fixed or
# exponent notation, changes) and exact decimal ties at the 17th digit
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.225073858507201e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308]
for _k in range(-6, 19):
    _p = float(f"1e{_k}")
    EDGES += [np.nextafter(_p, 0.0), _p, np.nextafter(_p, np.inf), -np.nextafter(_p, np.inf)]
# n + 1/4 and n + 3/4 for a 16-digit n below 2**51 are exact doubles whose
# 17-digit roundings are ties: half to even gives n.2 and n.8
TIES = st.builds(lambda n, q, sign: sign * (n + q), st.integers(10**15, 2**51 - 1),
                     st.sampled_from([0.25, 0.75]), st.sampled_from([1.0, -1.0]))


def format_rows(matrix) -> str:
    return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in matrix.tolist())


def test_ties_round_half_to_even():
    row = np.full((1, _csv.MIN), 1234567890123456.25)
    assert _csv.rows(row) == ",".join(["1234567890123456.2"] * _csv.MIN) + "\n"
    assert _csv.rows(-0.5 - row.T) == "-1234567890123456.8\n" * _csv.MIN


@settings(derandomize=True, max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(st.floats(), st.sampled_from(EDGES), TIES), max_size=200),
       ncols=st.integers(1, 40), size=st.sampled_from(["below cut-over", "above cut-over", "two blocks"]))
def test_rows_are_the_text_of_format_17g(values, ncols, size):
    rows = {"below cut-over": (_csv.MIN - 1) // ncols, "above cut-over": _csv.MIN // ncols + 1,
            "two blocks": _csv.BLOCK // ncols + 2}[size]
    matrix = np.resize(np.array(values + EDGES), (max(rows, 1), ncols))
    assert _csv.rows(matrix, head="h\n") == "h\n" + format_rows(matrix)
