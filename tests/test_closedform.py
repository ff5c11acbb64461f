import pytest

from cyclomod import (
    closed_g,
    compute_table,
    diophantine_witness,
    make_context,
    primes_in_range,
    represent,
    resolve_sign,
    solve,
    verify_identities,
)
from cyclomod.closedform import KIND_D3, KIND_D4, certify, formula_table
from cyclomod.errors import FormulaMismatch, NotPrime, WrongResidueClass

from conftest import table_from_counts


def test_represent_d3_examples():
    rep = represent(7, KIND_D3)
    assert (rep.first, rep.second) == (1, 1)  # 28 = 1 + 27
    rep13 = represent(13, KIND_D3)
    assert (rep13.first, rep13.second) == (-5, 1)  # 52 = 25 + 27, -5 = 1 mod 3
    assert not rep13.sign_resolved


def test_represent_d4_examples():
    rep = represent(5, KIND_D4)
    assert (rep.first, rep.second) == (1, 1)  # 5 = 1 + 4
    rep13 = represent(13, KIND_D4)
    assert (rep13.first, rep13.second) == (-3, 1)  # 13 = 9 + 4, -3 = 1 mod 4
    rep17 = represent(17, KIND_D4)
    assert (rep17.first, rep17.second) == (1, 2)


def test_represent_validates_input():
    with pytest.raises(WrongResidueClass):
        represent(11, KIND_D3)  # 11 = 2 mod 3
    with pytest.raises(WrongResidueClass):
        represent(7, KIND_D4)  # 7 = 3 mod 4
    with pytest.raises(NotPrime):
        represent(25, KIND_D4)
    with pytest.raises(ValueError):
        represent(13, "d5")


def test_represent_normalization_holds_over_range():
    for p in primes_in_range(7, 600):
        if p % 3 == 1:
            rep = represent(p, KIND_D3)
            assert 4 * p == rep.first**2 + 27 * rep.second**2
            assert rep.first % 3 == 1
            assert rep.second > 0
        if p % 4 == 1:
            rep = represent(p, KIND_D4)
            assert p == rep.first**2 + 4 * rep.second**2
            assert rep.first % 4 == 1
            assert rep.second > 0


def test_resolve_sign_p7_with_generator_3():
    # counted (0,1) = 0 forces 9 + 9M = 0, so M = -1 under omega = 3
    table = compute_table(make_context(7, 3))
    resolved = resolve_sign(represent(7, KIND_D3), table)
    assert resolved.second == -1
    assert resolved.sign_resolved


def test_resolve_sign_p13_d4_f_odd():
    table = compute_table(make_context(13, 4))
    resolved = resolve_sign(represent(13, KIND_D4), table)
    assert resolved.second == -1  # frozen: generator 2 pairs with y = -1
    formula = formula_table(13, KIND_D4, resolved.first, resolved.second)
    assert formula == [list(row) for row in table.counts]


def test_resolve_sign_p17_d4_f_even():
    table = compute_table(make_context(17, 4))
    resolved = resolve_sign(represent(17, KIND_D4), table)
    formula = formula_table(17, KIND_D4, resolved.first, resolved.second)
    assert formula == [list(row) for row in table.counts]
    assert formula[0][0] == 0  # 16*(0,0) = 17 - 11 - 6


def test_resolve_sign_rejects_foreign_table():
    table = compute_table(make_context(13, 4))
    with pytest.raises(FormulaMismatch):
        # representation of a different prime cannot match this table
        resolve_sign(represent(29, KIND_D4), table)
    with pytest.raises(ValueError):
        resolve_sign(represent(13, KIND_D3), table)  # kind/order mismatch


def test_formula_tables_match_counts_over_range():
    for p in primes_in_range(7, 1000):
        for d, kind in ((3, KIND_D3), (4, KIND_D4)):
            if p % d != 1:
                continue
            table = compute_table(make_context(p, d))
            rep = resolve_sign(represent(p, kind), table)
            formula = formula_table(p, kind, rep.first, rep.second)
            assert formula == [list(row) for row in table.counts], (p, d)


def test_resolve_sign_rejects_doctored_order3_table():
    table = compute_table(make_context(13, 3))
    assert table.counts == ((0, 1, 2), (1, 2, 1), (2, 1, 1))
    # (1,1) and (2,2) up by one, (1,2) and (2,1) down by one: still
    # symmetric with the row sums intact, but (i, j) = (-i, j - i) breaks
    doctored = table_from_counts(table.ctx, ((0, 1, 2), (1, 3, 0), (2, 0, 2)))
    report = verify_identities(doctored)
    assert [c.name for c in report if not c.passed] == ["reflection"]
    with pytest.raises(FormulaMismatch):
        resolve_sign(represent(13, KIND_D3), doctored)
    with pytest.raises(FormulaMismatch):
        certify(doctored)


def test_certify_bundles_closed_form_for_both_orders():
    cert3 = certify(compute_table(make_context(7, 3)))
    assert cert3.g == 3 and cert3.witness is None
    assert (cert3.rep.first, cert3.rep.second) == (1, -1)
    assert cert3.rep.sign_resolved
    cert4 = certify(compute_table(make_context(29, 4)))
    assert cert4.g == 3
    assert (cert4.rep.first, cert4.rep.second) == (5, -1)
    assert cert4.witness == diophantine_witness(29)
    with pytest.raises(ValueError):
        certify(compute_table(make_context(11, 5)))


def test_g3_closed():
    assert closed_g(7, 3) == 3
    assert closed_g(13, 3) == 2
    assert closed_g(9973, 3) == 2
    with pytest.raises(WrongResidueClass):
        closed_g(11, 3)


def test_g4_closed():
    assert closed_g(5, 4) == 4
    assert closed_g(13, 4) == 3
    assert closed_g(17, 4) == 3
    assert closed_g(29, 4) == 3
    assert closed_g(37, 4) == 2
    with pytest.raises(WrongResidueClass):
        closed_g(7, 4)


def test_witness_examples():
    w13 = diophantine_witness(13)
    assert w13 is not None
    assert w13.parity == "odd"
    assert w13.alphas == (1,)
    assert not w13.worst_case_4

    assert diophantine_witness(41) is None
    assert diophantine_witness(97) is None

    w5 = diophantine_witness(5)
    assert w5 is not None and w5.worst_case_4
    w17 = diophantine_witness(17)
    assert w17 is not None and w17.parity == "even"
    w29 = diophantine_witness(29)
    assert w29 is not None and w29.alphas == (2,)


def test_witness_iff_g_exceeds_two():
    for p in primes_in_range(5, 500):
        if p % 4 != 1:
            continue
        has_witness = diophantine_witness(p) is not None
        assert has_witness == (solve(make_context(p, 4)).g > 2), p


def test_witness_primes_are_exactly_the_known_four():
    witnessed = [
        p
        for p in primes_in_range(5, 2000)
        if p % 4 == 1 and diophantine_witness(p) is not None
    ]
    assert witnessed == [5, 13, 17, 29]


def test_boundary_equivalence_d3():
    # the order-3 boundary case: some class needs three summands exactly
    # when L = M = 1, which happens only at p = 7
    for p in primes_in_range(7, 1000):
        if p % 3 != 1:
            continue
        rep = represent(p, KIND_D3)
        boundary = 2 * p in (4 + rep.first + 9 * rep.second,
                             4 + rep.first - 9 * rep.second)
        assert boundary == (p == 7), p
        assert (rep.first == 1 and rep.second == 1) == (p == 7)
