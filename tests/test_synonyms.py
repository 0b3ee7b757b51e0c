"""The compact operator names are aliases of the descriptive API."""

from fractions import Fraction

import pytest

import treedissim as td
from treedissim import puiseux

F = Fraction


@pytest.mark.parametrize(
    "alias,target",
    [
        (td.phi_m, td.dissimilarity_map),
        (td.phi_3, td.triple_dissimilarity),
        (td.invert3, td.invert_triple_dissimilarity),
        (td.membership3, td.triple_membership),
        (td.pi4, td.pairing_map),
        (td.in_L, td.pairing_agreement),
        (td.p_project, td.project_pairings),
        (puiseux.val, td.PuiseuxPoly.val),
        (puiseux.deg, td.PuiseuxPoly.deg),
        (puiseux.add, td.PuiseuxPoly.__add__),
        (puiseux.sub, td.PuiseuxPoly.__sub__),
        (puiseux.mul, td.PuiseuxPoly.__mul__),
    ],
    ids=["phi_m", "phi_3", "invert3", "membership3", "pi4", "in_L", "p_project", "val", "deg", "add", "sub", "mul"],
)
def test_short_name_is_alias(alias, target):
    assert alias is target


def test_phi_m_matches_dissimilarity_map(quartet_dm):
    assert td.phi_m(quartet_dm, 3).entries == td.dissimilarity_map(quartet_dm, 3).entries


def test_phi_3_matches_triple_dissimilarity(quartet_dm):
    assert td.phi_3(quartet_dm).entries == td.triple_dissimilarity(quartet_dm).entries


def test_phi_m_with_argmin_checks_m(quartet_dm):
    value, tours = td.phi_m_with_argmin(quartet_dm, 4, (1, 2, 3, 4))
    assert (value, tours) == td.tour_minimizers(quartet_dm, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        td.phi_m_with_argmin(quartet_dm, 3, (1, 2, 3, 4))


def test_in_Tmn_checks_dimensions(ones5):
    w = td.phi_3(ones5)
    assert td.in_Tmn(w, 3, 5)
    with pytest.raises(ValueError):
        td.in_Tmn(w, 4, 5)
    with pytest.raises(ValueError):
        td.in_Tmn(w, 3, 6)


def test_invert3_and_membership3(ones5):
    w = td.phi_3(ones5)
    assert td.invert3(w) == ones5
    assert td.membership3(w).is_member


def test_pairing_synonyms(ones5, bumped5):
    assert td.pi4(ones5) == td.pairing_map(ones5)
    assert td.PiPoint is td.PairingPoint
    assert bool(td.in_L(td.pi4(ones5)))
    assert not td.in_L(td.pi4(bumped5))
    assert td.p_project(td.pi4(ones5)).entries == td.phi_m(ones5, 4).entries


def test_certificate3_alias(quartet):
    cert = td.build_certificate(quartet)
    assert isinstance(cert, td.Certificate3)
    assert td.Certificate3 is td.ValuationCertificate


def test_topology_iterator_exposes_n():
    it = td.enumerate_topologies(5)
    assert isinstance(it, td.TopologyIterator)
    assert it.n == 5
    assert sum(1 for _ in it) == 15
    # a TopologyIterator can be consumed more than once
    assert sum(1 for _ in it) == 15


def test_cycle_sum_reversal_invariance(quartet_dm):
    a = td.cycle_sum(quartet_dm, (1, 2, 3, 4))
    b = td.cycle_sum(quartet_dm, (1, 4, 3, 2))
    assert a.value == b.value == F(10)
    assert a.subset == b.subset == (1, 2, 3, 4)
    value, _ = td.tour_minimizers(quartet_dm, (1, 2, 3, 4))
    assert a.value == 2 * value


def test_cycle_sum_validates_tour(quartet_dm):
    with pytest.raises(ValueError):
        td.cycle_sum(quartet_dm, (1, 1, 2))


def test_puiseux_free_functions():
    from treedissim.puiseux import add, deg, mul, sub, val

    p = td.PuiseuxPoly.monomial(2, 3)
    q = td.PuiseuxPoly.monomial(1, 1)
    assert val(p) == F(3)
    assert deg(add(p, q)) == F(3)
    assert sub(p, p).is_zero
    assert mul(p, q) == td.PuiseuxPoly.monomial(2, 4)
