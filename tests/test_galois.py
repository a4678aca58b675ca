import itertools
import time

import pytest
from hypothesis import given, strategies as st

from muxfec.galois import (
    PRIME_LIMIT,
    FieldSpec,
    field_sizes,
    field_spec,
    is_prime,
    next_prime,
    smallest_nonresidue,
)

from oracles import (
    KERNEL_FIELDS,
    code_pairs,
    ext_euclid_inverse,
    is_prime_trial,
    o_add,
    o_mul,
    o_sub,
    pair_code,
)


def test_default_spec_uses_smallest_nonresidue():
    spec = field_spec(11)
    assert smallest_nonresidue(11) == 2
    assert spec.ext_poly() == (0, 9)  # x^2 - 2 over GF(11)
    assert field_spec(2).ext_poly() == (1, 1)  # no non-residue mod 2
    with pytest.raises(ValueError, match="no quadratic non-residue mod 2"):
        smallest_nonresidue(2)


def test_spec_rejects_composite_and_reducible():
    with pytest.raises(ValueError):
        FieldSpec(10, 0, 9)
    with pytest.raises(ValueError):
        FieldSpec(11, 0, 10)  # x^2 - 1 = (x-1)(x+1)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_irreducibility_matches_root_search(q):
    for c1, c0 in itertools.product(range(q), repeat=2):
        has_root = any((x * x + c1 * x + c0) % q == 0 for x in range(q))
        if has_root:
            with pytest.raises(ValueError, match="not irreducible"):
                FieldSpec(q, c1, c0)
        else:
            assert FieldSpec(q, c1, c0).ext_poly() == (c1, c0)


def test_spec_at_large_prime():
    q = 2**31 - 1
    spec = field_spec(q)
    x = spec.code(0, 1)
    assert spec.mul(x, spec.inv(x)) == 1
    with pytest.raises(ValueError, match="not irreducible"):
        FieldSpec(q, 0, q - 1)  # x^2 - 1


def test_add_examples():
    gf11 = field_spec(11)
    assert gf11.add(7, 8) == 4  # 15 mod 11
    assert gf11.add(3, 0) == 3
    assert gf11.add(gf11.code(5, 7), gf11.code(6, 4)) == 0  # 11 = 0


def test_mul_examples():
    gf11 = field_spec(11)
    assert gf11.mul(7, 8) == 1  # 56 mod 11
    x = gf11.code(0, 1)
    r = smallest_nonresidue(11)
    assert gf11.mul(x, x) == gf11.code(r)  # x^2 = r for ext_poly x^2 - r


def test_inv_examples():
    gf11 = field_spec(11)
    assert gf11.inv(3) == 4  # 12 mod 11 = 1
    assert gf11.inv(1) == 1
    with pytest.raises(ValueError, match="zero"):
        gf11.inv(0)


def test_beta_inverse_matches_extended_euclid_oracle():
    spec = field_spec(11)
    beta = 11  # x itself
    lo, hi = ext_euclid_inverse(code_pairs([beta], spec.q)[0], spec.q, spec.c1, spec.c0)
    oracle_inv = spec.code(lo, hi)
    assert spec.mul(beta, oracle_inv) == 1
    assert spec.inv(beta) == oracle_inv


@pytest.mark.parametrize("q", [5, 11])
def test_all_inverses_brute_force(q):
    spec = field_spec(q)
    for a in range(1, spec.order):
        inv = spec.inv(a)
        assert spec.mul(a, inv) == 1
        # brute scan: the inverse is the unique element with product 1
        hits = [b for b in range(spec.order) if spec.mul(a, b) == 1]
        assert hits == [inv]


@pytest.mark.parametrize("spec", KERNEL_FIELDS[:4], ids=str)
def test_single_element_api_matches_pair_oracles(spec):
    """add, sub, mul and inv on every pair of codes against longhand pair
    arithmetic, in fields with c1 != 0 (whose x-term the default fields of
    odd q never exercise) and in field_spec(11)."""
    q, c1, c0 = spec.q, spec.c1, spec.c0
    pairs = code_pairs(range(spec.order), q)
    for (a, pa), (b, pb) in itertools.product(enumerate(pairs), repeat=2):
        assert spec.add(a, b) == pair_code(o_add(pa, pb, q), q)
        assert spec.sub(a, b) == pair_code(o_sub(pa, pb, q), q)
        assert spec.mul(a, b) == pair_code(o_mul(pa, pb, q, c1, c0), q)
    for a, pa in enumerate(pairs[1:], start=1):
        assert spec.inv(a) == pair_code(ext_euclid_inverse(pa, q, c1, c0), q)


def test_in_base_field():
    spec = field_spec(11)
    assert spec.is_base(11) is False  # the beta = 11 convention
    assert spec.is_base(0) is True
    assert spec.is_base(7) is True


def test_display_code_round_trip():
    for q in (2, 3, 5, 11):
        spec = field_spec(q)
        for code, (lo, hi) in enumerate(code_pairs(range(spec.order), q)):
            assert spec.code(lo, hi) == code
            assert spec.code(lo + q, hi - q) == code  # coordinates reduce mod q


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_field_axioms_exhaustive(q):
    """Associativity/commutativity/distributivity on base-field triples,
    plus full pair checks over GF(q^2)."""
    spec = field_spec(q)
    add, mul = spec.add, spec.mul
    for a, b, c in itertools.product(range(q), repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    ext = range(spec.order)
    for a, b in itertools.product(ext, repeat=2):
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
    for a in ext:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        if a:
            assert mul(a, spec.inv(a)) == 1


@pytest.mark.parametrize("q", [5, 11, 13])
def test_extension_closure_and_membership(q):
    spec = field_spec(q)
    for a in range(q, spec.order):  # exactly the codes with hi != 0
        assert not spec.is_base(a)
        sq = spec.mul(a, a)
        assert 0 <= sq < spec.order


@given(st.sampled_from([3, 5, 7, 11, 13]), st.data())
def test_axioms_on_random_extension_triples(q, data):
    spec = field_spec(q)
    pick = st.integers(min_value=0, max_value=spec.order - 1)
    a, b, c = (data.draw(pick) for _ in range(3))
    add, mul = spec.add, spec.mul
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    q_, c1, c0 = spec.q, spec.c1, spec.c0
    pa, pb = code_pairs((a, b), q_)
    assert code_pairs((mul(a, b), add(a, b), spec.sub(a, b)), q_) == \
        [o_mul(pa, pb, q_, c1, c0), o_add(pa, pb, q_), o_sub(pa, pb, q_)]


def test_prime_helpers():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert next_prime(8) == 11
    assert next_prime(11) == 11
    # the builders' field schedule: four draws per size, then >= 3q/2
    assert list(field_sizes(7, 9)) == [7, 7, 7, 7, 11, 11, 11, 11, 17]


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == is_prime_trial(n) for n in range(20_000))


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, and a strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (561, 41041, 3215031751):
        assert not is_prime(n)


def test_is_prime_large_and_beyond_limit():
    t0 = time.perf_counter()
    assert is_prime(10**14 + 31)
    assert time.perf_counter() - t0 < 0.1  # trial division took most of a second
    assert is_prime(2**61 - 1) and not is_prime((2**31 - 1) * (10**14 + 31))
    # PRIME_LIMIT = 1287836182261 * 2575672364521 passes all 13 bases, so
    # neither it nor any larger q is decided, and no FieldSpec accepts it
    assert PRIME_LIMIT == 1287836182261 * 2575672364521
    for n in (PRIME_LIMIT, PRIME_LIMIT + 2):
        with pytest.raises(ValueError, match="only decided below"):
            is_prime(n)
    with pytest.raises(ValueError):
        FieldSpec(PRIME_LIMIT, 0, 1)
