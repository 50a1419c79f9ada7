"""Value semantics of the package's records: pickling, copying, freezing and
equality, for the slotted classes and the named tuples alike."""

import copy
import pickle

import pytest

from peakpoly.identities import CheckResult, Witness
from peakpoly.permutations import StatDistribution
from peakpoly.polynomial import Poly
from peakpoly.series import TruncSeries

RECORDS = [
    Poly((1, -4, 0, 2)),
    Poly(()),
    TruncSeries(2, (Poly((1,)), Poly((0, 1)), Poly((0, 1, 1)))),
    StatDistribution(3, "des", (1, 4, 1)),
    CheckResult("oracle_des", (1, 6), "pass"),
    CheckResult("gf_C", (0, 16), "fail", Witness(9, 3, "10", "11")),
    Witness(5, -1, "StructureViolation", "degree: 4 != 5"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_survive_pickle_and_copy(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert clone == record and type(clone) is type(record), protocol
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert clone == record and type(clone) is type(record)
        assert hash(clone) == hash(record)


def test_poly_and_series_are_frozen():
    p = Poly((1, 2))
    s = TruncSeries(0, (p,))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    with pytest.raises(AttributeError):
        s.order = 1
    with pytest.raises(AttributeError, match="Poly is immutable: cannot delete 'coeffs'"):
        del p.coeffs
    with pytest.raises(AttributeError, match="TruncSeries is immutable: cannot delete 'order'"):
        del s.order
    assert p.coeffs == (1, 2) and s.order == 0


def test_poly_equals_only_polys():
    assert Poly((1,)) != (1,)
    assert Poly((1, 0)) == Poly((1,))
    assert hash(Poly((1, 0))) == hash(Poly((1,)))
    # the hash of a value is that of its slot tuple
    assert hash(Poly((1, 2))) == hash(((1, 2),))
    assert hash(TruncSeries(0, (Poly((1,)),))) == hash((0, (Poly((1,)),)))
    assert TruncSeries(0, (Poly((1,)),)) != (0, (Poly((1,)),))


def test_series_length_must_match_order():
    with pytest.raises(ValueError):
        TruncSeries(2, (Poly((1,)), Poly((0, 1))))
    with pytest.raises(ValueError):
        TruncSeries(-1, ())
