from fractions import Fraction

import pytest

from distdlog import dist
from distdlog.resources import (
    order_register_width,
    per_node_qubits_formula,
    single_node_qubits,
    slack_bits,
)

# every fraction p/q in (0, 1) with q <= 40, whose 2 + k/eps hits exact
# powers of two (eps = 1/6, k/6, k/14, ...) as well as the values between
EPSILONS = sorted({Fraction(p, q) for q in range(2, 41) for p in range(1, q)})


def least_exponent(x: Fraction) -> int:
    """The least e >= 0 with 2**e >= x, by counting up in Fractions."""
    e = 0
    while 2**e < x:
        e += 1
    return e


@pytest.mark.parametrize("k", range(1, 17))
def test_slack_bits_is_the_least_exponent(k):
    for eps in EPSILONS:
        assert slack_bits(k, eps) == least_exponent(2 + k / eps), eps


@pytest.mark.parametrize("text, value", [("0.1", Fraction(1, 10)), ("0.25", Fraction(1, 4))])
def test_slack_bits_reads_decimal_strings_exactly(text, value):
    """"0.1" means one tenth, not the nearest binary float."""
    for k in (1, 3, 16):
        assert slack_bits(k, text) == slack_bits(k, value) == least_exponent(2 + k / value)


@pytest.mark.parametrize(
    "epsilon, shown",
    [(0, "0"), (1, "1"), (Fraction(-1, 2), "-1/2"), ("1.5", "3/2"), (2.0, "2")],
)
def test_slack_bits_refuses_epsilon_outside_the_unit_interval(epsilon, shown):
    for k in (1, 2):
        with pytest.raises(ValueError, match=f"^epsilon must be in \\(0,1\\), got {shown}$"):
            slack_bits(k, epsilon)


@pytest.mark.parametrize("k", [0, -1])
def test_slack_bits_refuses_fewer_than_one_node(k):
    with pytest.raises(ValueError, match=f"^need k >= 1, got {k}$"):
        slack_bits(k, Fraction(1, 4))


@pytest.mark.parametrize("r", [2, 3, 5, 8, 11, 16001, 2**64, 2**64 + 1])
def test_order_register_width_and_the_plan_width(r):
    """ceil(log2 r + 1) is the least e with 2**e >= 2r, and a distributed
    plan's W is one more."""
    assert order_register_width(r) == least_exponent(Fraction(2 * r))
    if r > 2:
        assert dist.plan_for_order(r, 2).total_width == order_register_width(r) + 1


def test_qubit_counts_use_the_slack_rule():
    """Alg. 2 holds 2(width + slack(1, eps)) + L qubits; the per-node
    formula is 2(W/k + slack(k, eps')) + L with W = width + 1."""
    r, L, k = 16001, 15, 3
    eps, eps_prime = Fraction(1, 4), Fraction(1, 5)
    width = order_register_width(r)
    assert single_node_qubits(r, L, eps) == 2 * (width + slack_bits(1, eps)) + L
    assert per_node_qubits_formula(r, L, k, eps_prime) == (
        2 * (Fraction(width + 1, k) + slack_bits(k, eps_prime)) + L
    )
