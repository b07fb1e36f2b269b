import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdlog import phase, statevec
from distdlog.phase import (
    AccuracyReport,
    accuracy_width,
    check_accuracy_bound,
    phase_outcome_distribution,
    phase_state_amplitudes,
    prefix_marginal,
    sample_phase_outcome,
)

from gatelevel import build_eigenstate, run_phase_estimation
from phaseloop import accuracy_report, outcome_distribution


def double_sum_distribution(omega: Fraction, t: int) -> np.ndarray:
    """Oracle: the O(4^t) direct evaluation of the outcome probabilities."""
    size = 1 << t
    js = np.arange(size)
    out = np.empty(size)
    for m in range(size):
        amp = np.exp(2j * np.pi * js * (float(omega) - m / size)).sum() / size
        out[m] = abs(amp) ** 2
    return out


class TestEigenstates:
    def test_zero_branch_uniform_on_orbit(self, instance):
        vec = build_eigenstate(instance, 0)
        orbit = {pow(instance.a, k, instance.N) for k in range(instance.r)}
        for x in range(1 << instance.L):
            if x in orbit:
                assert vec[x] == pytest.approx(1 / math.sqrt(instance.r))
            else:
                assert vec[x] == 0

    def test_orthonormality(self, instance):
        vecs = [build_eigenstate(instance, s) for s in range(instance.r)]
        for i, u in enumerate(vecs):
            for j, v in enumerate(vecs):
                inner = np.vdot(u, v)
                assert abs(inner - (1.0 if i == j else 0.0)) < 1e-12

    def test_sum_collapses_to_one_state(self, instance):
        total = sum(build_eigenstate(instance, s) for s in range(instance.r)) / math.sqrt(instance.r)
        expected = np.zeros(1 << instance.L)
        expected[1] = 1.0
        assert np.abs(total - expected).max() < 1e-12

    def test_bad_branch_index(self, instance):
        with pytest.raises(ValueError):
            build_eigenstate(instance, instance.r)


class TestOutcomeDistribution:
    def test_exact_phase_is_one_hot(self):
        dist = phase_outcome_distribution(Fraction(1, 4), 2)
        assert np.allclose(dist, [0, 1, 0, 0])
        dist = phase_outcome_distribution(Fraction(0), 3)
        assert np.allclose(dist, np.eye(8)[0])

    def test_against_double_sum_example(self):
        got = phase_outcome_distribution(Fraction(1, 5), 4)
        want = double_sum_distribution(Fraction(1, 5), 4)
        assert np.abs(got - want).max() < 1e-12

    @given(st.integers(1, 8), st.integers(2, 40), st.data())
    @settings(max_examples=60)
    def test_against_double_sum_random(self, t, denominator, data):
        numerator = data.draw(st.integers(0, denominator - 1))
        omega = Fraction(numerator, denominator)
        got = phase_outcome_distribution(omega, t)
        want = double_sum_distribution(omega, t)
        assert np.abs(got - want).max() < 1e-12

    @given(st.integers(1, 10), st.integers(2, 60), st.data())
    @settings(max_examples=60)
    def test_normalisation_and_shift(self, t, denominator, data):
        numerator = data.draw(st.integers(0, denominator - 1))
        omega = Fraction(numerator, denominator)
        dist = phase_outcome_distribution(omega, t)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        shifted = Fraction(numerator + denominator * 0, denominator) + Fraction(1, 1 << t)
        if shifted < 1:
            rolled = phase_outcome_distribution(shifted, t)
            assert np.abs(rolled - np.roll(dist, 1)).max() < 1e-12

    def test_amplitudes_square_to_distribution(self):
        for omega in (Fraction(1, 5), Fraction(3, 7), Fraction(0), Fraction(1, 4)):
            amps = phase_state_amplitudes(omega, 5)
            dist = phase_outcome_distribution(omega, 5)
            assert np.abs(np.abs(amps) ** 2 - dist).max() < 1e-12

    def test_prefix_marginal_folds(self):
        dist = phase_outcome_distribution(Fraction(2, 5), 5)
        folded = prefix_marginal(dist, 3)
        assert folded.shape == (8,)
        assert folded.sum() == pytest.approx(1.0)
        assert folded[2] == pytest.approx(dist[8:12].sum())

    def test_mass_drift_repro(self):
        """(47 << 17) mod 16001 = 16000: the peak angle sits next to pi."""
        dist = phase_outcome_distribution(Fraction(47, 16001), 17)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [13, 14, 18])
    @pytest.mark.parametrize("distance", [1, 4])
    def test_mass_near_full_turn_residue(self, t, distance):
        """Residues den - 1 and den - 4 of 2^t w put the peak angle next to
        pi, where an unfolded float sine is off by about 1e-12 relative."""
        r = 16001
        num = (r - distance) * pow(pow(2, t, r), -1, r) % r
        assert (num << t) % r == r - distance
        dist = phase_outcome_distribution(Fraction(num, r), t)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        # sin^2(pi (2^t w - m)) is sin^2(pi d / r) for every m
        m = int(np.argmax(dist))
        diff = (num << t) - m * r  # exact 2^t r (w - m / 2^t)
        want = math.sin(math.pi * distance / r) ** 2 / (
            (1 << (2 * t)) * math.sin(math.pi * diff / (r << t)) ** 2
        )
        assert dist[m] == pytest.approx(want, rel=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            phase_outcome_distribution(Fraction(3, 2), 4)


REJECTED = [
    (Fraction(3, 2), 4), (Fraction(1), 4), (Fraction(-1, 5), 4), (Fraction(1, 5), 0),
    (Fraction(1, 5), 27), (Fraction(1, (1 << 40) + 1), 22),
    (Fraction(12345678901, (1 << 45) + 59), 20),
]
REJECTED_IDS = ["above-one", "one", "negative", "t-zero", "t-above-cap", "62-bit-limit",
                "int64-overflow"]


def near_turn_numerators(r: int, t: int) -> list[int]:
    """The last 16 numerators of r and the 16 whose residue (num << t) mod r
    lies just below r: the phases that put a sine next to a full turn."""
    inverse = pow(pow(2, t, r), -1, r)
    return sorted({(r - d) * inverse % r for d in range(1, 17)} | set(range(r - 16, r)))


def kernel_rows(nums, den: int, t: int) -> np.ndarray:
    """``outcome_laws`` of nums/den in blocks of at most 2^20 entries."""
    step = max(1, (1 << 20) >> t)
    return np.concatenate(
        [phase.outcome_laws(nums[i : i + step], den, t) for i in range(0, len(nums), step)]
    )


class TestOutcomeLaws:
    """The row kernel against the one-phase body it replaced
    (``tests/phaseloop.py``), bit for bit."""

    @pytest.mark.parametrize("t", range(1, 11))
    def test_rows_equal_reference_small_orders(self, t):
        """Every s/r for r = 2..40, composite r (unreduced s/r) and s = 0
        included."""
        for r in range(2, 41):
            laws = phase.outcome_laws(np.arange(r), r, t)
            assert laws.shape == (r, 1 << t)
            for s in range(r):
                assert np.array_equal(laws[s], outcome_distribution(Fraction(s, r), t)), (s, r)

    def test_rows_equal_reference_large_order(self):
        r = 16001
        nums = np.arange(0, r, 97)
        for t in range(1, 18):
            laws = kernel_rows(nums, r, t)
            for num, row in zip(nums.tolist(), laws):
                assert np.array_equal(row, outcome_distribution(Fraction(num, r), t)), (num, t)

    def test_rows_next_to_a_full_turn_keep_their_mass(self):
        """At r = 16001 a phase within 1/r of 1 puts its peak entry's
        unfolded denominator sine next to pi, where the mass used to drift
        by about 1.28e-12. Folded to the offset from the peak, every such
        row, and every residue next to a full turn that ``bench/run.py``'s
        ``fault_numerators`` tries, sums to 1 within 1e-12, in the kernel
        and in the reference, one row at a time and as one block."""
        r = 16001
        for t in range(1, 18):
            nums = near_turn_numerators(r, t)
            laws = phase.outcome_laws(nums, r, t)
            assert np.abs(laws.sum(axis=1) - 1.0).max() <= 1e-12, t
            for num, row in zip(nums, laws):
                assert abs(outcome_distribution(Fraction(num, r), t).sum() - 1.0) <= 1e-12
                assert np.array_equal(phase.outcome_laws([num], r, t)[0], row), (num, t)

    def test_entries_stay_near_the_unfolded_formula(self):
        """Folding by whole turns moves no entry by more than 1e-9 relative
        from sin^2(pi (2^t w - m)) / (2^2t sin^2(pi (w - m/2^t))) evaluated
        unfolded: every s/r for r = 2..40 at t = 1..10, and at r = 16001
        the phases next to a full turn at t = 1..17 and every 97th phase at
        t = 1..12."""
        cases = [(np.arange(r), r, t) for r in range(2, 41) for t in range(1, 11)]
        r = 16001
        for t in range(1, 18):
            nums = set(near_turn_numerators(r, t))
            if t <= 12:
                nums |= set(range(0, r, 97))
            cases.append((np.array(sorted(nums)), r, t))
        for nums, den, t in cases:
            common = np.gcd(nums, den)
            num, dens = (nums // common)[:, None], (den // common)[:, None]
            diff = (num << t) - np.arange(1 << t) * dens  # unfolded
            peaks = np.array([phase._peak_factor(int(n << t) % int(d), int(d))
                              for n, d in zip(num.ravel(), dens.ravel())])
            with np.errstate(divide="ignore", invalid="ignore"):
                want = peaks[:, None] / (
                    float(1 << t) ** 2 * np.sin(np.pi * (diff / (dens << t).astype(float))) ** 2
                )
            want[diff == 0] = 1.0
            got = kernel_rows(nums, den, t)
            assert np.allclose(got, want, rtol=1e-9, atol=0.0), (den, t)

    @pytest.mark.parametrize("omega, t", REJECTED, ids=REJECTED_IDS)
    def test_value_errors_match_the_one_row_law(self, omega, t):
        """A bad row among good ones raises the one-row law's error."""
        with pytest.raises(ValueError) as law_error:
            phase_outcome_distribution(omega, t)
        with pytest.raises(ValueError) as row_error:
            phase.outcome_laws([0, omega.numerator], [1, omega.denominator], t)
        assert str(row_error.value) == str(law_error.value)

    def test_width_refusals_are_check_widths(self):
        """The row kernel, the one-row law and the sampler refuse a width
        by ``check_width`` on the reduced denominator, with its message: t
        below 1 or above the cap, t + bits(den) past 62, and a denominator
        that is too wide once reduced. Among several rows too wide, the
        kernel names the widest denominator."""
        for num, den, t in [(1, 5, 0), (1, 5, 27), (1, (1 << 40) + 1, 22),
                            (3, 3 * ((1 << 43) + 1), 20)]:
            with pytest.raises(ValueError) as want:
                phase.check_width(t, den // math.gcd(num, den))
            refusals = (
                lambda: phase.outcome_laws([0, num, 1], [1, den, 3], t),
                lambda: phase_outcome_distribution(Fraction(num, den), t),
                lambda: sample_phase_outcome(NoDrawRng(), num, den, t),
            )
            for refuse in refusals:
                with pytest.raises(ValueError) as got:
                    refuse()
                assert str(got.value) == str(want.value), (num, den, t)
        widest = (1 << 44) + 1
        with pytest.raises(ValueError, match=f"^width 20 with denominator {widest} exceeds"):
            phase.outcome_laws([1, 1, 1], [(1 << 42) + 1, widest, 3], 20)

    def test_one_row_law_is_cached_read_only(self):
        law = phase_outcome_distribution(Fraction(2, 7), 6)
        assert phase_outcome_distribution(Fraction(2, 7), 6) is law
        assert not law.flags.writeable
        assert np.array_equal(law, phase.outcome_laws([2], 7, 6)[0])


class TestAccuracyMasses:
    """The vectorised window and prefix masses against the one-phase
    boolean-mask sums they replaced (``tests/phaseloop.py``), bit for bit."""

    def test_rows_equal_one_phase_reports(self):
        for r in (12, 31, 97):
            nums = np.arange(r)
            for eps in ("0.5", "0.1"):
                for n in range(1, 7):
                    t = accuracy_width(n, eps)
                    masses = phase.accuracy_masses(phase.outcome_laws(nums, r, t), nums, r, n)
                    assert masses.shape == (r, t - n + 2)
                    for s, row in enumerate(masses.tolist()):
                        report = accuracy_report(Fraction(s, r), t, n, eps)
                        assert row == [report.window_mass, *report.prefix_masses.values()], (s, r, n)

    @pytest.mark.parametrize("t", range(1, 13))
    def test_window_gather_equals_boolean_masks_bytewise(self, t):
        """Every 1 <= n <= t: each row's masses have the bytes of the
        boolean-mask sums. The rows are every s/r for r = 1, 2, 12, 31, 97,
        and (2^t - 1)/2^t, so some windows wrap below 0 (target 0) and some
        past 2^w - 1 (target 2^w - 1) at every width w; at n = 1 each prefix
        window is the whole circle."""
        rs = (1, 2, 12, 31, 97)
        nums = np.array([s for r in rs for s in range(r)] + [(1 << t) - 1])
        dens = np.array([r for r in rs for _ in range(r)] + [1 << t])
        laws = phase.outcome_laws(nums, dens, t)
        targets = (nums << t) // dens
        assert targets.min() == 0 and targets.max() == (1 << t) - 1
        omegas = [Fraction(int(num), int(den)) for num, den in zip(nums, dens)]
        for n in range(1, t + 1):
            masses = phase.accuracy_masses(laws, nums, dens, n)
            assert masses.shape == (len(nums), t - n + 2)
            for row, omega in zip(masses, omegas):
                report = accuracy_report(omega, t, n, "0.5")
                want = np.array([report.window_mass, *report.prefix_masses.values()])
                assert row.tobytes() == want.tobytes(), (omega, t, n)

    def test_working_set_is_the_windows(self):
        """At n = 13 and the eps = 0.1 width t = 16, four rows of law take
        2 MiB; the masses' temporaries stay under 64 KiB, where a
        (rows, 2^16) int64 mask would take 2 MiB."""
        import tracemalloc

        t = accuracy_width(13, "0.1")
        assert t == 16
        nums = np.array([0, 1, 48, 96])
        laws = phase.outcome_laws(nums, 97, t)
        phase.accuracy_masses(laws, nums, 97, 13)
        tracemalloc.start()
        try:
            phase.accuracy_masses(laws, nums, 97, 13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, peak

    def test_one_phase_report_equals_reference(self):
        for r in range(2, 25):
            for s in range(r):
                for n in (1, 2, 3):
                    for eps in ("0.5", "0.1"):
                        t = accuracy_width(n, eps)
                        want = accuracy_report(Fraction(s, r), t, n, eps)
                        assert check_accuracy_bound(Fraction(s, r), t, n, eps) == want


SAMPLER_DENOMINATORS = (3, 5, 7, 11, 13, 31, 37, 101)


def sampler_phases():
    """(num, den, t) for every non-grid numerator of the sampler
    denominators at t = 1..12, and at r = 16001 the near-turn phases and
    those whose residue (num << t) mod r puts f = rem / r next to 0 or 1/2."""
    for den in SAMPLER_DENOMINATORS:
        for t in range(1, 13):
            for num in range(1, den):
                if (num << t) % den:
                    yield num, den, t
    r = 16001
    for t in range(1, 13):
        inverse = pow(pow(2, t, r), -1, r)
        edges = {res * inverse % r for res in (1, 2, 3, 8000, 8001)}
        for num in sorted(edges | set(near_turn_numerators(r, t))):
            yield num, r, t


@pytest.fixture(scope="module")
def offset_law_extremes():
    """One pass over ``sampler_phases``: the largest p(j) / (M Q(j)) over
    the tail offsets j not in {0, 1}, M = 7/4 sin^2(pi f), the envelope of
    the sampler's tail loop; the largest TV between the law the sampler
    draws on outcomes c + j mod 2^t, p(0), p(1) and the tail renormalised
    to 1 - p(0) - p(1) (all of 1 - p(0) on offset 1 at t = 1), and the
    closed-form law; whether every outcome got exactly one weight; and
    whether every weight is the law's entry."""
    worst_ratio = worst_tv = 0.0
    covers = exact = True
    for num, den, t in sampler_phases():
        size = 1 << t
        js = np.arange(-(size >> 1) + 1, (size >> 1) + 1)
        c, rem = divmod(num << t, den)
        peak = phase._peak_factor(rem, den)
        scale, norm = float(den << t), float(size) ** 2
        p = np.array([phase._offset_weight(peak, rem - int(j) * den, scale, norm) for j in js])
        tail = (js < 0) | (js > 1)
        q = np.arctan(1.0 / ((js - rem / den) ** 2 + 0.75)) / np.pi
        if tail.any():
            worst_ratio = max(worst_ratio, float((p / (1.75 * peak * q))[tail].max()))
        implied = np.zeros(size)
        implied[(c + js) % size] = p
        covers = covers and np.count_nonzero(implied) == size
        law = phase.outcome_laws(num, den, t)[0]
        exact = exact and np.array_equal(implied, law)
        p0, p1 = p[js == 0][0], p[js == 1][0]
        drawn = np.zeros(size)
        drawn[c % size] = p0
        if t == 1:
            drawn[(c + 1) % size] = 1.0 - p0
        else:
            drawn[(c + 1) % size] = p1
            drawn[(c + js[tail]) % size] = p[tail] * ((1.0 - p0 - p1) / p[tail].sum())
        worst_tv = max(worst_tv, 0.5 * float(np.abs(drawn - law).sum()))
    return worst_ratio, worst_tv, covers, exact


def chi_square_critical(df: int, z: float = 3.719) -> float:
    """Upper chi-square quantile by the Wilson-Hilferty approximation;
    z = 3.719 is the normal quantile at p = 1e-4."""
    k = 2.0 / (9.0 * df)
    return df * (1.0 - k + z * math.sqrt(k)) ** 3


class NoDrawRng:
    def random(self):
        raise AssertionError("an exact-grid phase drew a uniform")


class CountingRng:
    """A generator that counts the uniforms a draw takes."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.uniforms = 0

    def random(self):
        self.uniforms += 1
        return self.rng.random()


class TestPhaseSampler:
    def test_envelope_bounds_every_offset(self, offset_law_extremes):
        """p(j) <= 7/4 sin^2(pi f) Q(j) at every tail offset, so every
        acceptance probability of the tail loop is at most 1 (the docstring
        proves it; this checks the floats)."""
        worst_ratio, *_ = offset_law_extremes
        assert worst_ratio <= 1.0  # 0.54 at 1/16001, t = 2

    def test_implied_law_matches_closed_form(self, offset_law_extremes):
        """The sampler's weights cover each outcome once, and the law it
        draws, p(0) and p(1) by inversion and the tail by rejection
        renormalised to the rest, is the closed-form law, at t = 1 and with
        f next to 0, 1/2 and 1 too."""
        _, worst_tv, covers, _ = offset_law_extremes
        assert covers
        assert worst_tv <= 1e-13

    @pytest.mark.parametrize("num, den", [(1, 3), (2, 5), (1, 16001), (8000, 16001), (16000, 16001)])
    def test_one_qubit_draw_takes_one_uniform(self, num, den):
        """At t = 1 offsets 0 and 1 are the whole law: one uniform, no loop."""
        rng = CountingRng(11)
        for _ in range(200):
            sample_phase_outcome(rng, num, den, 1)
        assert rng.uniforms == 200

    @pytest.mark.parametrize("t", [13, 14, 18])
    def test_mean_uniforms_per_draw(self, t):
        """At r = 16001, over every numerator, a draw takes at most 2.5
        uniforms on average: most draws end at the inversion of the two
        central outcomes, and the tail loop's expected cost,
        1.75 sin^2(pi f) proposals, brings the exact mean to 2.317 at each
        of these widths (the factor-4 envelope took about 8)."""
        rng = CountingRng(12)
        nums = range(1, 16001)
        for num in nums:
            sample_phase_outcome(rng, num, 16001, t)
        assert rng.uniforms / len(nums) <= 2.5

    def test_law_entries_are_the_sampler_weights(self, offset_law_extremes):
        """Every entry of ``outcome_laws`` is ``_offset_weight``, the
        weight the sampler's loop calls, at its offset from the peak, bit for
        bit: the law and the sampler share one formula. Checked on the
        sampler denominators at t = 1..12 and on the r = 16001 phases next
        to a full turn at t = 1..10."""
        *_, exact = offset_law_extremes
        assert exact
        r = 16001
        for t in range(1, 11):
            size = 1 << t
            js = range(-(size >> 1) + 1, (size >> 1) + 1)
            scale, norm = float(r << t), float(size) ** 2
            nums = near_turn_numerators(r, t)
            for num, law in zip(nums, phase.outcome_laws(nums, r, t)):
                c, rem = divmod(num << t, r)
                peak = phase._peak_factor(rem, r)
                for j in js:
                    want = phase._offset_weight(peak, rem - j * r, scale, norm)
                    assert law[(c + j) % size] == want, (num, t, j)

    @pytest.mark.parametrize(
        "omega, t",
        [(Fraction(1, 3), 3), (Fraction(2, 5), 6), (Fraction(7, 13), 8),
         (Fraction(17, 101), 10), (Fraction(5, 37), 12), (Fraction(30, 31), 12)],
    )
    def test_draws_pass_chi_square(self, omega, t):
        """20000 seeded draws against the closed-form law; outcomes with an
        expected count below 5 share one pooled cell."""
        law = phase_outcome_distribution(omega, t)
        draws = 20_000
        rng = np.random.default_rng(2024)
        counts = np.bincount(
            [sample_phase_outcome(rng, omega.numerator, omega.denominator, t) for _ in range(draws)],
            minlength=1 << t,
        )
        expected = law * draws
        big = expected >= 5
        observed = np.append(counts[big], counts[~big].sum())
        wanted = np.append(expected[big], expected[~big].sum())
        keep = wanted > 0
        stat = float((((observed - wanted) ** 2)[keep] / wanted[keep]).sum())
        assert stat <= chi_square_critical(int(keep.sum()) - 1)

    @pytest.mark.parametrize(
        "omega, t, outcome",
        [(Fraction(0), 1, 0), (Fraction(0), 9, 0), (Fraction(3, 8), 5, 12),
         (Fraction(1, 2), 1, 1), (Fraction(5, 16), 4, 5)],
    )
    def test_exact_grid_phase_draws_nothing(self, omega, t, outcome):
        assert sample_phase_outcome(NoDrawRng(), omega.numerator, omega.denominator, t) == outcome
        assert phase_outcome_distribution(omega, t)[outcome] == 1.0

    def test_unreduced_phase_draws_as_its_lowest_terms(self):
        """The sampler reduces num/den by their gcd before the width check and
        before any weight, as the law does: a phase given in other terms
        consumes the same uniforms and draws the same outcomes, even where
        only the reduced denominator fits the exact range (factor 2^50)."""
        for num, den, t in [(2, 5, 6), (17, 101, 10), (5, 37, 12)]:
            for factor in (3, 1 << 50):
                reduced, scaled = np.random.default_rng(5), np.random.default_rng(5)
                want = [sample_phase_outcome(reduced, num, den, t) for _ in range(200)]
                got = [sample_phase_outcome(scaled, num * factor, den * factor, t) for _ in range(200)]
                assert got == want, (num, den, t, factor)
                assert scaled.bit_generator.state == reduced.bit_generator.state

    @pytest.mark.parametrize("omega, t", REJECTED, ids=REJECTED_IDS)
    def test_rejects_what_the_law_rejects(self, omega, t):
        """The sampler and the amplitudes refuse exactly what the law does;
        past the 62-bit range the amplitudes' int64 products would wrap."""
        with pytest.raises(ValueError) as law_error:
            phase_outcome_distribution(omega, t)
        with pytest.raises(ValueError) as sampler_error:
            sample_phase_outcome(NoDrawRng(), omega.numerator, omega.denominator, t)
        with pytest.raises(ValueError) as amplitude_error:
            phase_state_amplitudes(omega, t)
        assert str(sampler_error.value) == str(law_error.value)
        assert str(amplitude_error.value) == str(law_error.value)


class TestAccuracyWidth:
    def test_width_formula(self):
        # ceil(log2(2 + 1/(2 * 1/4))) = ceil(log2 4) = 2
        assert accuracy_width(3, "0.25") == 5
        # ceil(log2(2 + 5)) = 3
        assert accuracy_width(4, "0.1") == 7

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            accuracy_width(2, "1.5")


class TestCircuitEstimation:
    def test_zero_phase_deterministic(self, instance):
        t = accuracy_width(3, "0.25")
        for seed in range(5):
            bits = run_phase_estimation(
                t, (instance.a, instance.N), instance, 0, np.random.default_rng(seed)
            )
            assert bits.value == 0

    def test_exact_marginal_matches_analytic(self, instance):
        s = 2
        t = accuracy_width(3, "0.25")
        layout = statevec.RegisterLayout((("x", t), ("work", instance.L)))
        state = statevec.init_product(layout, {"work": build_eigenstate(instance, s)})
        state = statevec.hadamard_layer(state, "x")
        state = statevec.controlled_modmul_power(
            state, "x", "work", instance.a, 0, instance.N
        )
        state = statevec.inverse_qft(state, "x")
        got = statevec.marginal_distribution(state, "x", t)
        want = phase_outcome_distribution(Fraction(s, instance.r), t)
        assert 0.5 * np.abs(got - want).sum() < 1e-9

    def test_empirical_distribution(self, instance):
        s = 1
        t = accuracy_width(3, "0.25")
        counts = np.zeros(1 << t)
        runs = 10_000
        rng = np.random.default_rng(12345)
        for _ in range(runs):
            bits = run_phase_estimation(t, (instance.a, instance.N), instance, s, rng)
            counts[bits.value] += 1
        tv = 0.5 * np.abs(
            counts / runs - phase_outcome_distribution(Fraction(s, instance.r), t)
        ).sum()
        assert tv <= 0.05

    def test_power_shift_trick(self, instance):
        """Raising the controlled map to 2^(n-1) estimates the tail phase:
        the circuit marginal matches the closed form at the shifted phase."""
        s, n = 2, 3
        shifted = Fraction((s * pow(2, n - 1, instance.r)) % instance.r, instance.r)
        t = accuracy_width(3, "0.25")
        layout = statevec.RegisterLayout((("x", t), ("work", instance.L)))
        state = statevec.init_product(layout, {"work": build_eigenstate(instance, s)})
        state = statevec.hadamard_layer(state, "x")
        state = statevec.controlled_modmul_power(
            state, "x", "work", instance.a, n - 1, instance.N
        )
        state = statevec.inverse_qft(state, "x")
        got = statevec.marginal_distribution(state, "x", t)
        want = phase_outcome_distribution(shifted, t)
        assert 0.5 * np.abs(got - want).sum() < 1e-9

    def test_modulus_mismatch_rejected(self, instance):
        t = accuracy_width(2, "0.5")
        with pytest.raises(ValueError):
            run_phase_estimation(t, (3, 13), instance, 1, np.random.default_rng(0))


class TestAccuracyBounds:
    def test_example(self):
        report = check_accuracy_bound(Fraction(1, 5), accuracy_width(3, "0.25"), 3, "0.25")
        assert isinstance(report, AccuracyReport)
        assert report.ok
        assert report.window_mass >= 0.75

    def test_exact_phase_full_mass(self):
        report = check_accuracy_bound(Fraction(3, 8), accuracy_width(3, "0.25"), 3, "0.25")
        assert report.window_mass == pytest.approx(1.0)
        assert all(m == pytest.approx(1.0) for m in report.prefix_masses.values())

    def test_prefix_levels_cover_n_to_t(self):
        t = accuracy_width(2, "0.5")
        report = check_accuracy_bound(Fraction(1, 3), t, 2, "0.5")
        assert sorted(report.prefix_masses) == list(range(2, t + 1))
