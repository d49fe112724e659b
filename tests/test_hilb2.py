import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from k3lat import exact, hilb2
from k3lat.hilb2 import (ample_model_verdict, line_witness, minus2_wall_scan,
                         minus10_obstruction_grams, minus10_solutions,
                         obstruction_report, vector_with)
from oracles import minus2_box, minus10_box, vector_with_by_parametrisation

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

LINE_IN_QUARTIC = ((-2, 1), (1, 4))
BAD_SUBLATTICE = ((2, 3), (3, 4))


def norm_and_pairing(gram, vec):
    a, b = vec
    q = (gram[0][0] * a * a + 2 * gram[0][1] * a * b + gram[1][1] * b * b)
    return q, gram[0][1] * a + gram[1][1] * b


class TestMinus10:
    def test_degree_four_exactly_two_grams(self):
        assert minus10_obstruction_grams(4) == [LINE_IN_QUARTIC, BAD_SUBLATTICE]

    def test_bad_sublattice_contains_line_block(self):
        # change of basis (3x - 2h, h) inside the larger block
        sub = exact.conjugate_rows([[3, -2], [0, 1]],
                                   [list(r) for r in BAD_SUBLATTICE])
        assert sub == [[-2, 1], [1, 4]]

    def test_higher_degrees_single_gram(self):
        for h_sq in range(6, 22, 2):
            assert minus10_obstruction_grams(h_sq) == [((-2, 1), (1, h_sq))]

    def test_degree_two_needs_bound(self):
        with pytest.raises(ValueError, match="l_bound"):
            minus10_obstruction_grams(2)

    @pytest.mark.parametrize("h_sq", [2, 4])
    def test_negative_bound_rejected(self, h_sq):
        with pytest.raises(ValueError, match="l_bound must be a nonnegative"):
            minus10_solutions(h_sq, l_bound=-1)

    def test_degree_two_truncated_scan(self):
        grams = minus10_obstruction_grams(2, l_bound=50)
        assert len(grams) == 51
        assert grams[:3] == [((-2, 1), (1, 2)), ((2, 3), (3, 2)),
                             ((10, 5), (5, 2))]

    def test_rejects_bad_degree(self):
        for h_sq in (3, 0, -4, 7):
            with pytest.raises(ValueError):
                minus10_obstruction_grams(h_sq)

    def test_matches_box_oracle(self):
        for h_sq in (2, 4, 6, 10):
            bound = 50 if h_sq == 2 else None
            got = minus10_obstruction_grams(h_sq, l_bound=bound)
            want = [tuple(map(tuple, g)) for g in minus10_box(h_sq, 50, 50)]
            assert got == want

    def test_box_doubling_adds_nothing(self):
        # the derived ranges really are exhaustive for bounded degree
        for h_sq in range(4, 22, 2):
            assert minus10_box(h_sq, 50, 50) == minus10_box(h_sq, 100, 100)

    def test_witnesses_reconstruct(self):
        for h_sq in (2, 4, 6, 8, 12):
            bound = 8 if h_sq == 2 else None
            for gram, k, l in minus10_solutions(h_sq, l_bound=bound):
                assert math.gcd(k, 2 * l + 1) == 1
                x_sq = 2 * (l * l + l - 1) // (k * k)
                h_x = (2 * l + 1) // k
                assert gram == ((x_sq, h_x), (h_x, h_sq))
                assert gram[0][0] * h_sq - gram[0][1] ** 2 < 0


class TestMinus2WallScan:
    def test_degree_four_unique_wall(self):
        scan = minus2_wall_scan(4)
        assert scan.solutions == ((Fraction(1, 2), 1, 1),)
        assert scan.terminal_gram == LINE_IN_QUARTIC

    def test_all_degrees_share_the_half_wall(self):
        for h_sq in range(2, 22, 2):
            scan = minus2_wall_scan(h_sq)
            assert scan.solutions == ((Fraction(1, 2), 1, 1),)
            half = (h_sq - 2) // 2
            assert scan.terminal_gram == ((-2, half), (half, h_sq))
            assert -2 * h_sq - half * half < 0

    def test_matches_box_oracle(self):
        for h_sq in (2, 4, 6, 10, 22, 46, 100, 196):
            want = {(t, abs(k), abs(l)) for t, k, l in minus2_box(h_sq, 30, 30)}
            assert set(minus2_wall_scan(h_sq).solutions) == want

    def test_degree_two_wall_block_self_destructs(self):
        # the forced block has a -2-class orthogonal to the ample class
        scan = minus2_wall_scan(2)
        assert scan.terminal_gram == ((-2, 0), (0, 2))
        assert vector_with(scan.terminal_gram, -2, 0) is not None

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            minus2_wall_scan(5)
        with pytest.raises(ValueError):
            minus2_wall_scan(0)


class TestVectorSolver:
    def test_frozen_line_witnesses(self):
        assert line_witness(LINE_IN_QUARTIC) == (1, 0)
        assert line_witness(BAD_SUBLATTICE) == (3, -2)
        for gram in (LINE_IN_QUARTIC, BAD_SUBLATTICE):
            assert norm_and_pairing(gram, line_witness(gram)) == (-2, 1)

    def test_no_witness_when_parity_blocks_pairing(self):
        assert line_witness(((-2, 0), (0, 2))) is None

    def test_degree_six_wall_block_has_no_witness(self):
        gram = ((-2, 2), (2, 6))
        assert line_witness(gram) is None
        assert vector_with(gram, -2, 0) is None

    def test_agrees_with_brute_force(self):
        rng = random.Random(7)
        checked = 0
        while checked < 25:
            g00 = rng.randrange(-6, 7)
            g01 = rng.randrange(-6, 7)
            g11 = rng.randrange(1, 9)
            if g00 * g11 - g01 * g01 >= 0:
                continue
            gram = ((g00, g01), (g01, g11))
            norm = -2 * rng.randrange(1, 4)
            pairing = rng.randrange(0, 4)
            got = vector_with(gram, norm, pairing)
            brute = [(a, b) for a in range(-60, 61) for b in range(-60, 61)
                     if norm_and_pairing(gram, (a, b)) == (norm, pairing)]
            if got is None:
                assert brute == []
            else:
                assert norm_and_pairing(gram, got) == (norm, pairing)
                assert got == max(brute)  # the larger a of the two
            checked += 1

    def test_agrees_with_parametrisation_oracle(self):
        rng = random.Random(25)
        checked = found = 0
        while checked < 20000:
            g00, g01 = rng.randint(-40, 40), rng.randint(-40, 40)
            g11 = rng.randint(1, 59)
            if g00 * g11 == g01 * g01:
                continue
            gram = ((g00, g01), (g01, g11))
            # a random system, mostly unsolvable, and one planted solution
            planted = (rng.randint(-5, 5), rng.randint(-5, 5))
            for norm, pairing in ((rng.randint(-30, 30), rng.randint(-10, 10)),
                                  norm_and_pairing(gram, planted)):
                got = vector_with(gram, norm, pairing)
                assert got == vector_with_by_parametrisation(gram, norm,
                                                             pairing)
                found += got is not None
            checked += 1
        assert found > checked  # every planted system, and some random ones

    @pytest.mark.parametrize("gram", [((2, 1), (1, 0)), ((2, 1), (1, -3)),
                                      ((1, 1), (1, 1)), ((4, 6), (6, 9)),
                                      ((0, 0), (0, 5))])
    def test_outside_the_domain_is_a_value_error(self, gram):
        with pytest.raises(ValueError, match="H > 0 and a nonzero"):
            vector_with(gram, -2, 0)

    def test_domain_check_survives_python_O(self):
        code = ("from k3lat.hilb2 import vector_with\n"
                "for g in (((2, 1), (1, 0)), ((4, 6), (6, 9))):\n"
                "    try:\n"
                "        vector_with(g, -2, 0)\n"
                "    except ValueError:\n"
                "        print('rejected')\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, env=env, timeout=60)
        assert done.stdout.decode().split() == ["rejected"] * 2


class TestReportAndVerdict:
    def test_report_degree_four(self):
        rep = obstruction_report(4)
        assert rep.minus10_grams == (LINE_IN_QUARTIC, BAD_SUBLATTICE)
        assert rep.wall_solutions == ((Fraction(1, 2), 1, 1),)
        assert rep.line_class_needed

    def test_quartic_without_lines_gets_ample_model(self):
        assert ample_model_verdict(4, no_lines=True) is True

    def test_quartic_with_lines_is_blocked(self):
        assert ample_model_verdict(4, no_lines=False) is False

    def test_degree_six_needs_picard_knowledge(self):
        # the wall block ((-2,2),(2,6)) carries neither a line class nor
        # a class orthogonal to h, so "no lines" is not enough
        assert ample_model_verdict(6, no_lines=True) is False

    def test_degree_two_cleared_by_lines_alone(self):
        assert ample_model_verdict(2, no_lines=True, l_bound=50) is True

    def test_emitted_blocks_are_hyperbolic(self):
        for h_sq in range(2, 22, 2):
            bound = 20 if h_sq == 2 else None
            blocks = minus10_obstruction_grams(h_sq, l_bound=bound)
            blocks.append(minus2_wall_scan(h_sq).terminal_gram)
            for g in blocks:
                assert g[0][0] * g[1][1] - g[0][1] ** 2 < 0

    def test_same_answers_as_parametrisation_oracle(self, monkeypatch):
        def answers():
            return [(obstruction_report(h_sq, l_bound=40),
                     ample_model_verdict(h_sq, False, l_bound=40),
                     ample_model_verdict(h_sq, True, l_bound=40))
                    for h_sq in range(2, 401, 2)]
        got = answers()
        monkeypatch.setattr(hilb2, "vector_with",
                            vector_with_by_parametrisation)
        assert got == answers()
