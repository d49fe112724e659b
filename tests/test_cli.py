"""Dataset round trips, fixture integrity, and the command line."""

import collections
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from k3lat import cli, fqm
from k3lat.cli import InputError, format_table, main, run_table
from k3lat.dataset import Dataset, DatasetError, b_entries, builtin_dataset, \
    emit_dataset, load_dataset, parse_dataset
from k3lat.fixtures import DATASET_TEXT
from k3lat.fqm import Fqm, anti_embeddings, hom_closure_images, hom_image, \
    identity_hom, is_isomorphic, isomorphisms, k3sq_glue_admissible, \
    orthogonal_group
from k3lat.glue import partner_disc_candidates
from k3lat.lattice import Lattice, disc_map
from oracles import TABLE_COLUMNS, leech_gram, negation_hom, parse_table

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the frozen `k3lat table` output (permissive, built-in dataset); read only
FROZEN_TABLE = ROOT / "perfbench" / "expected" / "table.csv"
# the nine groups with coinvariant disc data, their obar generating all of
# O(D_M) resp. only <-1>, and the frozen `k3lat table --mode exact` stdout
# of each: <name>.txt and <name>.csv
DATA = ROOT / "tests" / "data"
EXACT_DATASETS = ("exact_orthogonal_group", "exact_minus_one")

PINNED_ORDERS = {
    "L2(11)": 660, "L3(4)": 20160, "A7": 2520, "2^3:L2(7)": 1344,
    "2xL2(7)": 336, "2:A6": 720, "2^4:S5": 1920, "S6": 720, "M10": 720,
    "(3xA5):2": 360, "Q(3^2:2)": 1458, "2^4:(S3xS3)": 576,
    "3^2:QD16": 144, "3^(1+4):2.2^2": 1944, "3^4:A6": 29160,
}

# the six rows whose partner form is not pinned by the glue analysis alone
UNPINNED = {"2^3:L2(7)", "2xL2(7)", "2:A6", "2^4:S5", "Q(3^2:2)",
            "2^4:(S3xS3)"}


# `k3lat hilb2` stdout frozen from the wall-search implementation: all but
# the last line, then that line's verdict without and with --no-lines
HILB2_STDOUT = {
    ("2", "--l-bound", "3"): ("""\
obstruction blocks: 4
  [[-2,1],[1,2]]
  [[2,3],[3,2]]
  [[10,5],[5,2]]
  [[22,7],[7,2]]
walls:
  t=1/2 k=1 l=1
wall block: [[-2,0],[0,2]]
line class needed: yes
""", ("no", "yes")),
    ("4",): ("""\
obstruction blocks: 2
  [[-2,1],[1,4]]
  [[2,3],[3,4]]
walls:
  t=1/2 k=1 l=1
wall block: [[-2,1],[1,4]]
line class needed: yes
""", ("no", "yes")),
    ("6",): ("""\
obstruction blocks: 1
  [[-2,1],[1,6]]
walls:
  t=1/2 k=1 l=1
wall block: [[-2,2],[2,6]]
line class needed: yes
""", ("no", "no")),
    ("10",): ("""\
obstruction blocks: 1
  [[-2,1],[1,10]]
walls:
  t=1/2 k=1 l=1
wall block: [[-2,4],[4,10]]
line class needed: yes
""", ("no", "no")),
    ("22",): ("""\
obstruction blocks: 1
  [[-2,1],[1,22]]
walls:
  t=1/2 k=1 l=1
wall block: [[-2,10],[10,22]]
line class needed: yes
""", ("no", "no")),
    ("196",): ("""\
obstruction blocks: 1
  [[-2,1],[1,196]]
walls:
  t=1/2 k=1 l=1
wall block: [[-2,97],[97,196]]
line class needed: yes
""", ("no", "no")),
}


def small_dataset() -> Dataset:
    ds = builtin_dataset()
    return Dataset((ds.group("3^4:A6"), ds.group("L2(11)")), ())


def row_tuples(rows):
    return [(r.group_name, r.h_sq, r.h_div, r.m, r.t_gram, r.k3_flag, r.mode)
            for r in rows]


class TestParseEmit:
    def test_builtin_round_trip_is_byte_identical(self):
        assert emit_dataset(parse_dataset(DATASET_TEXT)) == DATASET_TEXT

    def test_comments_and_blank_lines_are_ignored(self):
        noisy = ("format 1\n# a comment\n\ngroup X\norder 6\n\ngram 3\n"
                 "2 0 0\n0 2 0  # trailing note\n0 0 2\nend\n")
        clean = ("format 1\n\ngroup X\norder 6\ngram 3\n"
                 "2 0 0\n0 2 0\n0 0 2\nend\n")
        assert emit_dataset(parse_dataset(noisy)) == clean

    def test_empty_text_wants_header(self):
        with pytest.raises(DatasetError, match=r"line 1: empty dataset"):
            parse_dataset("")

    def test_header_is_required(self):
        with pytest.raises(DatasetError, match=r"'format 1' header"):
            parse_dataset("group X\nend\n")

    def test_unknown_block_is_named(self):
        with pytest.raises(DatasetError, match=r"unknown block 'widget'"):
            parse_dataset("format 1\nwidget W\nend\n")

    def test_missing_end_points_at_the_block(self):
        with pytest.raises(DatasetError, match=r"line 2: .*missing its 'end'"):
            parse_dataset("format 1\ngroup X\norder 6\n")

    def test_non_integer_entry_is_located(self):
        text = "format 1\ngroup X\norder 6\ngram 3\n2 0 0\n0 x 0\n0 0 2\nend\n"
        with pytest.raises(DatasetError, match=r"line 6: .*not an integer"):
            parse_dataset(text)

    def test_asymmetric_gram_symmetry_diagnostic(self):
        text = "format 1\ngroup X\norder 2\ngram 3\n2 1 0\n0 2 0\n0 0 2\nend\n"
        with pytest.raises(DatasetError, match=r"line 4: gram symmetry"):
            parse_dataset(text)

    def test_odd_diagonal_is_rejected(self):
        text = "format 1\ngroup X\norder 2\ngram 3\n3 1 0\n1 2 0\n0 0 2\nend\n"
        with pytest.raises(DatasetError, match="evenness"):
            parse_dataset(text)

    def test_indefinite_gram_is_rejected(self):
        text = ("format 1\ngroup X\norder 2\ngram 3\n"
                "2 0 0\n0 -2 0\n0 0 2\nend\n")
        with pytest.raises(DatasetError, match="positive definite"):
            parse_dataset(text)

    def test_group_grams_are_three_by_three(self):
        text = "format 1\ngroup X\norder 2\ngram 2\n2 0\n0 2\nend\n"
        with pytest.raises(DatasetError, match="3x3"):
            parse_dataset(text)

    def test_ragged_gram_row(self):
        text = "format 1\ngroup X\norder 2\ngram 3\n2 0\n0 2 0\n0 0 2\nend\n"
        with pytest.raises(DatasetError, match=r"line 5: .*expected 3"):
            parse_dataset(text)

    def test_q_wants_one_value_per_generator(self):
        text = ("format 1\ngroup X\norder 2\ngram 3\n2 0 0\n0 2 0\n0 0 2\n"
                "disc 11 11\nq 16/11\nend\n")
        with pytest.raises(DatasetError, match="one value per disc generator"):
            parse_dataset(text)

    def test_b_indices_must_be_ordered(self):
        text = ("format 1\ngroup X\norder 2\ngram 3\n2 0 0\n0 2 0\n0 0 2\n"
                "disc 11 11\nq 16/11 20/11\nb 1 1 1/2\nend\n")
        with pytest.raises(DatasetError, match=r"0 <= i < j"):
            parse_dataset(text)

    def test_disc_orders_form_a_chain(self):
        text = ("format 1\ngroup X\norder 2\ngram 3\n2 0 0\n0 2 0\n0 0 2\n"
                "disc 4 6\nq 1/4 1/6\nend\n")
        with pytest.raises(DatasetError, match="disc form"):
            parse_dataset(text)

    @pytest.mark.parametrize("form, radical", [
        ("disc 2 6\nq 0 1/6\n", 2),
        ("disc 3 3\nq 2/3 2/3\nb 0 1 1/3\n", 3),
    ], ids=["q", "b"])
    def test_degenerate_disc_form(self, form, radical):
        # no lattice has such a discriminant form
        text = ("format 1\ngroup X\norder 2\ngram 3\n2 0 0\n0 2 0\n0 0 2\n"
                f"{form}end\n")
        with pytest.raises(DatasetError, match=(
                f"^line 8: disc form: pairing is degenerate: its radical "
                f"has order {radical}$")):
            parse_dataset(text)

    def test_q_without_disc_line(self):
        text = ("format 1\ngroup X\norder 2\ngram 3\n2 0 0\n0 2 0\n0 0 2\n"
                "q 1/2\nend\n")
        with pytest.raises(DatasetError, match="without a disc line"):
            parse_dataset(text)

    def test_duplicate_group_names_collide(self):
        block = "group X\norder 2\ngram 3\n2 0 0\n0 2 0\n0 0 2\nend\n"
        with pytest.raises(DatasetError, match="duplicate group name"):
            parse_dataset("format 1\n" + block + block)

    def test_duplicate_lattice_names_collide(self):
        block = "lattice A\ngram 1\n2\nend\n"
        with pytest.raises(DatasetError,
                           match=r"^line 6: duplicate lattice name 'A'$"):
            parse_dataset("format 1\n" + block + block)

    def test_obar_round_trip_and_form_check(self):
        text = ("format 1\n\ngroup X\norder 660\ngram 3\n"
                "2 1 0\n1 6 0\n0 0 22\n"
                "disc 11 11\nq 16/11 20/11\n"
                "obar 1,0 0,1\nobar 10,0 0,10\nend\n")
        ds = parse_dataset(text)
        assert emit_dataset(ds) == text
        assert len(ds.group("X").coinv.obar) == 2
        swapped = text.replace("obar 1,0 0,1", "obar 0,1 1,0")
        with pytest.raises(DatasetError, match="preserve the form"):
            parse_dataset(swapped)

    def test_coinv_gram_checked_against_disc(self):
        text = ("format 1\n\ngroup Y\norder 2\ngram 3\n2 0 0\n0 2 0\n0 0 2\n"
                "disc 2\nq 3/2\ncoinv_gram 1\n-2\nend\n")
        ds = parse_dataset(text)
        assert emit_dataset(ds) == text
        assert ds.group("Y").coinv.gram.gram == ((-2,),)
        with pytest.raises(DatasetError, match="disc/gram consistency"):
            parse_dataset(text.replace("q 3/2", "q 1/2"))

    def test_coinv_gram_must_be_negative_definite(self):
        text = ("format 1\ngroup Y\norder 2\ngram 3\n2 0 0\n0 2 0\n0 0 2\n"
                "coinv_gram 1\n2\nend\n")
        with pytest.raises(DatasetError, match="negative definite"):
            parse_dataset(text)

    # a made-up key, and two retired keys that older datasets may carry
    @pytest.mark.parametrize("key", ["bogus", "coinv_isometry", "g_gen"])
    def test_unknown_group_field_is_named(self, key):
        text = ("format 1\ngroup Y\norder 2\ngram 3\n2 0 0\n0 2 0\n0 0 2\n"
                f"disc 2\nq 3/2\n{key} 1\n1\nend\n")
        with pytest.raises(DatasetError,
                           match=f"line 10: unknown group field '{key}'"):
            parse_dataset(text)

    @pytest.mark.parametrize("field, lines", [
        ("coinv_gram", "coinv_gram 1\n-2\n"),
    ], ids=["coinv_gram"])
    def test_m_side_fields_require_disc(self, field, lines):
        text = ("format 1\ngroup Y\norder 2\ngram 3\n2 0 0\n0 2 0\n0 0 2\n"
                + lines + "end\n")
        with pytest.raises(DatasetError,
                           match=f"line 8: {field} without a disc line"):
            parse_dataset(text)

    SINGLE = ("format 1\n\ngroup Y\norder 2\ngram 3\n2 0 0\n0 2 0\n0 0 2\n"
              "disc 2\nq 3/2\ncoinv_gram 1\n-2\nend\n")

    @pytest.mark.parametrize("field, once, twice, first, second", [
        ("order", "order 2\n", "order 2\norder 3\n", 4, 5),
        ("disc", "disc 2\n", "disc 2\ndisc 2\n", 9, 10),
        ("q", "q 3/2\n", "q 3/2\nq 1/2\n", 10, 11),
        ("coinv_gram", "coinv_gram 1\n-2\n", "coinv_gram 1\n-2\n" * 2, 11, 13),
    ], ids=["order", "disc", "q", "coinv_gram"])
    def test_single_valued_field_is_not_repeated(self, field, once, twice,
                                                 first, second):
        assert emit_dataset(parse_dataset(self.SINGLE)) == self.SINGLE
        with pytest.raises(DatasetError, match=f"line {second}: repeated "
                           f"{field}: already given on line {first}$"):
            parse_dataset(self.SINGLE.replace(once, twice, 1))

    @pytest.mark.parametrize("again", ["b 0 1 1/2", "b 0 01 0"])
    def test_pairing_is_not_repeated(self, again):
        # a second b for one (i, j) used to override the first silently
        text = self.SINGLE.replace("disc 2\nq 3/2\n",
                                   "disc 2 2\nq 3/2 3/2\nb 0 1 0\n"
                                   f"{again}\n")
        with pytest.raises(DatasetError, match="line 12: repeated b 0 1: "
                                               "already given on line 11$"):
            parse_dataset(text)

    def test_load_dataset_from_file(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(DATASET_TEXT)
        assert emit_dataset(load_dataset(str(path))) == DATASET_TEXT

    def test_empty_dataset_emits_header_only(self):
        assert emit_dataset(Dataset((), ())) == "format 1\n"
        assert parse_dataset("format 1\n") == Dataset((), ())


class TestFixtures:
    def test_fifteen_groups_with_the_expected_orders(self):
        ds = builtin_dataset()
        assert {g.name: g.order for g in ds.groups} == PINNED_ORDERS

    def test_gram_counts_and_invariants(self):
        ds = builtin_dataset()
        assert sum(len(g.grams) for g in ds.groups) == 25
        for g in ds.groups:
            for lat in g.grams:
                assert lat.rank == 3
                assert lat.is_even
                assert lat.is_positive_definite

    def test_documented_grams_are_verbatim(self):
        ds = builtin_dataset()
        eleven = ds.group("L2(11)")
        assert eleven.grams[0].gram == ((2, 1, 0), (1, 6, 0), (0, 0, 22))
        assert eleven.grams[1].gram == ((6, 2, 2), (2, 8, -3), (2, -3, 8))
        # subscript underscores in lookups are optional
        a6 = ds.group("3^4:A_6")
        assert a6.name == "3^4:A6"
        assert a6.grams == (ds.group("3^4:A6").grams[0],)
        assert a6.grams[0].gram == ((6, 3, 0), (3, 6, 0), (0, 0, 6))

    def test_leech_block_matches_the_constructor(self):
        assert builtin_dataset().lattice("Leech").gram == leech_gram()

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            builtin_dataset().group("M23")
        with pytest.raises(KeyError):
            builtin_dataset().lattice("E8")

    def test_pinned_partner_forms(self):
        ds = builtin_dataset()
        assert ds.group("L2(11)").disc == Fqm(
            (11, 11), (Fraction(16, 11), Fraction(20, 11)),
            ((Fraction(0),), ()))
        assert ds.group("3^4:A6").disc == Fqm(
            (3, 3, 9),
            (Fraction(4, 3), Fraction(4, 3), Fraction(16, 9)),
            ((Fraction(0), Fraction(1, 3)), (Fraction(2, 3),), ()))

    def test_partner_forms_rederive_from_the_grams(self):
        # dual route: the stored disc is, up to isomorphism, the unique
        # admissible index-2 anti-embedding partner computed from the first
        # gram; the six unpinned groups admit exactly two candidate classes
        ds = builtin_dataset()
        for g in ds.groups:
            candidates = partner_disc_candidates(g.grams[0])
            if g.name in UNPINNED:
                assert g.disc is None
                assert len(candidates) == 2
                assert not is_isomorphic(*candidates)
            else:
                assert len(candidates) == 1
                assert is_isomorphic(candidates[0], g.disc)

    def test_partner_forms_work_for_every_gram_of_the_row(self):
        ds = builtin_dataset()
        for g in ds.groups:
            if g.disc is None:
                continue
            for lat in g.grams[1:]:
                candidates = partner_disc_candidates(lat)
                assert len(candidates) == 1
                assert isomorphisms(candidates[0], g.disc)


class TestTableRuns:
    def test_pinned_rows_appear(self):
        rows, warnings = run_table(small_dataset())
        assert warnings == []
        tups = row_tuples(rows)
        assert ("3^4:A6", 6, 2, 6, ((6, 3), (3, 6)), "unknown",
                "permissive") in tups
        assert ("L2(11)", 22, 2, 2, ((2, 1), (1, 6)), "unknown",
                "permissive") in tups
        assert all(r.mode == "permissive" for r in rows)

    def test_exact_mode_downgrades_with_warnings(self):
        permissive, _ = run_table(small_dataset())
        rows, warnings = run_table(small_dataset(), mode="exact")
        assert rows == permissive
        assert len(warnings) == 2
        assert all("exact mode needs obar" in w for w in warnings)

    def test_permissive_mode_ignores_obar(self):
        g = builtin_dataset().group("M10")
        with_obar = replace(g, coinv=replace(
            g.coinv, obar=(identity_hom(g.disc),)))
        rows, warnings = run_table(Dataset((with_obar,), ()),
                                   mode="permissive")
        assert warnings == []
        assert len(rows) == 5
        assert all(r.mode == "permissive" for r in rows)
        assert rows == run_table(Dataset((g,), ()))[0]

    def test_groups_without_disc_are_skipped(self):
        ds = Dataset((builtin_dataset().group("2:A6"),), ())
        rows, warnings = run_table(ds)
        assert rows == []
        assert warnings == ["2:A6: no coinvariant discriminant data, skipped"]

    def test_empty_dataset_yields_empty_table(self):
        rows, warnings = run_table(Dataset((), ()))
        assert (rows, warnings) == ([], [])
        assert format_table([], "csv") == "group,h_sq,div,m,t_gram,k3,mode\n"

    def test_unknown_mode_is_an_input_error(self):
        with pytest.raises(InputError, match="unknown mode"):
            run_table(Dataset((), ()), mode="fast")

    def test_formats_round_trip(self):
        rows, _ = run_table(small_dataset())
        for fmt in ("csv", "markdown"):
            text = format_table(rows, fmt)
            assert parse_table(text, fmt) == row_tuples(rows)

    def test_reader_checks_the_documented_schema(self):
        assert cli.TABLE_COLUMNS == TABLE_COLUMNS
        text = format_table(run_table(small_dataset())[0], "csv")
        for bad, match in (("x," + text, "csv header"),
                           (text + "A,1,2\n", "row has 3 cells")):
            with pytest.raises(ValueError, match=match):
                parse_table(bad, "csv")
        with pytest.raises(ValueError, match="markdown table needs"):
            parse_table("| group |\n", "markdown")
        with pytest.raises(ValueError, match="unknown table format"):
            parse_table(text, "json")


class TestMain:
    def test_disc_inline(self, capsys):
        assert main(["disc", "--gram", "2 1 0; 1 6 0; 0 0 22"]) == 0
        out = capsys.readouterr().out
        assert "orders: 11 22" in out

    def test_disc_of_unimodular_gram(self, capsys):
        assert main(["disc", "--lattice", "Leech"]) == 0
        assert "orders: trivial" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["disc", "--gram", "1 0; 0 1"],
        ["glue-check", "--gram", "1 0 0; 0 2 0; 0 0 2", "--disc", "2",
         "--q", "1/2"],
        ["disc", "--lattice", "Odd"],
    ], ids=["disc", "glue-check", "dataset-lattice"])
    def test_odd_gram_is_bad_input(self, capsys, tmp_path, argv):
        path = tmp_path / "odd.txt"
        path.write_text("format 1\n\nlattice Odd\ngram 2\n1 0\n0 1\nend\n")
        assert main(argv + ["--dataset", str(path)]) == 1
        assert "requires an even gram" in capsys.readouterr().err

    def test_exactly_one_gram_source(self, capsys):
        assert main(["disc"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_bad_inline_gram(self, capsys):
        assert main(["disc", "--gram", "2 1; 1"]) == 1
        assert "square" in capsys.readouterr().err

    def test_autgroup(self, capsys):
        assert main(["autgroup", "--gram", "2 0; 0 2"]) == 0
        out = capsys.readouterr().out
        assert "order: 8" in out

    def test_autgroup_needs_definite(self, capsys):
        assert main(["autgroup", "--gram", "0 1; 1 0"]) == 1
        assert "definite" in capsys.readouterr().err

    def test_shortvec(self, capsys):
        assert main(["shortvec", "--gram", "2", "--norm", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "count: 2"
        assert set(out[1:]) == {"1", "-1"}

    def test_shortvec_count_only(self, capsys):
        assert main(["shortvec", "--gram", "2 0; 0 2", "--norm", "2",
                     "--count-only"]) == 0
        assert capsys.readouterr().out == "count: 4\n"

    def test_good_isos_on_a_fixture(self, capsys):
        assert main(["good-isos", "--group", "3^4:A_6"]) == 0
        out = capsys.readouterr().out
        assert "order 6 trace 2" in out

    def test_good_isos_wants_rank_three(self, capsys):
        assert main(["good-isos", "--gram", "2 0; 0 2"]) == 1

    def test_good_isos_wants_an_even_gram(self, capsys):
        assert main(["good-isos", "--gram", "1 0 0; 0 1 0; 0 0 1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "live on even rank-3" in captured.err

    def test_glue_check_group_route(self, capsys):
        assert main(["glue-check", "--group", "L2(11)"]) == 0
        out = capsys.readouterr().out
        assert "verdict: admissible" in out

    def test_glue_check_inline_matches_group_route(self, capsys):
        assert main(["glue-check", "--group", "L2(11)"]) == 0
        via_group = capsys.readouterr().out
        assert main(["glue-check", "--gram", "2 1 0; 1 6 0; 0 0 22",
                     "--disc", "11,11", "--q", "16/11,20/11"]) == 0
        assert capsys.readouterr().out == via_group

    def test_glue_check_decides_each_image_once(self, capsys, monkeypatch):
        searches = []
        real = fqm._form_embeddings

        def logged(a, b, sign, candidates=None):
            searches.append((a, b, sign, candidates))
            return real(a, b, sign, candidates)

        monkeypatch.setattr(fqm, "_form_embeddings", logged)
        inline_disc = Fqm((11, 11), (Fraction(16, 11), Fraction(20, 11)),
                          ((Fraction(0),), ()))
        routes = [(["glue-check", "--group", g.name, "--index", str(i)],
                   g.disc, n)
                  for g in builtin_dataset().groups if g.disc is not None
                  for i, n in enumerate(g.grams)]
        routes.append((["glue-check", "--gram", "2 1 0; 1 6 0; 0 0 22",
                        "--disc", "11,11", "--q", "16/11,20/11"], inline_disc,
                       Lattice([[2, 1, 0], [1, 6, 0], [0, 0, 22]])))
        assert len(routes) == 17
        for argv, m_disc, n in routes:
            searches.clear()
            assert main(argv) == 0
            out = capsys.readouterr().out.splitlines()
            d_n = disc_map(n).fqm
            # one anti-embedding search per route
            assert searches == [(m_disc, d_n, -1, None)]
            embeddings = anti_embeddings(m_disc, d_n)
            per_embedding = sum(k3sq_glue_admissible(d_n, hom_image(e))
                                for e in embeddings)
            assert per_embedding > 0
            assert out == [f"anti-embeddings: {len(embeddings)}",
                           f"admissible: {per_embedding}",
                           "verdict: admissible"]

    @pytest.mark.parametrize("group", [g.name for g in builtin_dataset().groups
                                       if g.disc is not None])
    def test_glue_check_matches_per_map_images(self, capsys, group):
        # each shipped D(M), given inline, against every built-in Gram: the
        # pairing test prints what one hom_image and one
        # k3sq_glue_admissible per anti-embedding printed, including the
        # count 0 when 2 |D_M| != |D_N|
        d_m = builtin_dataset().group(group).disc
        form = ["--disc", ",".join(map(str, d_m.orders)),
                "--q", ",".join(map(str, d_m.q_diag))]
        for line in b_entries(d_m):
            form += ["--b", ",".join(line.split()[1:])]
        counts = collections.Counter()
        for g in builtin_dataset().groups:
            for n in g.grams:
                gram = "; ".join(" ".join(map(str, row)) for row in n.gram)
                assert main(["glue-check", "--gram", gram] + form) == 0
                d_n = disc_map(n).fqm
                embeddings = anti_embeddings(d_m, d_n)
                admissible = sum(k3sq_glue_admissible(d_n, hom_image(e))
                                 for e in embeddings)
                verdict = ("admissible" if admissible
                           else "no admissible glue")
                assert capsys.readouterr().out == (
                    f"anti-embeddings: {len(embeddings)}\n"
                    f"admissible: {admissible}\n"
                    f"verdict: {verdict}\n"), (gram, group)
                counts[2 * d_m.order == d_n.order, admissible > 0,
                       len(embeddings) > admissible] += 1
        # both admissible Grams and Grams of another order are met
        assert counts[True, True, False] + counts[True, True, True] > 0
        assert counts[False, False, False] + counts[False, False, True] > 0

    @pytest.mark.parametrize("gram,disc,q", [
        ("2 1 0; 1 6 0; 0 0 22", "11", "20/11"),
        ("2 0 0; 0 14 0; 0 0 14", "7", "12/7"),
        ("6 3 0; 3 6 0; 0 0 6", "9", "16/9"),
    ])
    def test_glue_check_smaller_form_lands_on_no_image(self, capsys, gram,
                                                       disc, q):
        # -q(y) on <y> for a y in some c^perp: its anti-embeddings land
        # inside c^perp, but on a smaller subgroup, so none is admissible
        assert main(["glue-check", "--gram", gram, "--disc", disc,
                     "--q", q]) == 0
        d_m = Fqm((int(disc),), (Fraction(q),), ((),))
        d_n = disc_map(Lattice(cli._rows_from_text(gram, "gram"))).fqm
        embeddings = anti_embeddings(d_m, d_n)
        assert embeddings and 2 * d_m.order < d_n.order
        assert not any(k3sq_glue_admissible(d_n, hom_image(e))
                       for e in embeddings)
        assert capsys.readouterr().out == (
            f"anti-embeddings: {len(embeddings)}\nadmissible: 0\n"
            "verdict: no admissible glue\n")

    @pytest.mark.parametrize("form", [
        ["--disc", "11,x", "--q", "16/11,20/11"],
        ["--disc", "11,11", "--q", "16/11,1/0"],
        ["--disc", "11,11", "--q", "16/11,20/11", "--b", "0,1"],
    ], ids=["disc", "q", "b"])
    def test_glue_check_malformed_inline_form(self, capsys, form):
        assert main(["glue-check", "--gram", "2 1 0; 1 6 0; 0 0 22",
                     *form]) == 1
        err = capsys.readouterr().err
        assert "disc form" in err and "internal invariant" not in err

    def test_glue_check_degenerate_inline_form(self, capsys):
        assert main(["glue-check", "--gram", "2 1 0; 1 2 0; 0 0 4",
                     "--disc", "2,2", "--q", "0,1/2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("k3lat: disc form: pairing is degenerate: "
                                "its radical has order 2\n")

    def test_glue_check_short_b_names_the_triple_format(self, capsys):
        assert main(["glue-check", "--gram", "2 1 0; 1 6 0; 0 0 22",
                     "--disc", "11,11", "--q", "16/11,20/11", "--b", "0"]) == 1
        assert capsys.readouterr().err == (
            "k3lat: disc form: --b wants i,j,value triples, got '0'\n")

    def test_glue_check_repeated_b_is_refused(self, capsys):
        assert main(["glue-check", "--gram", "2 1 0; 1 6 0; 0 0 22",
                     "--disc", "2,2", "--q", "3/2,3/2", "--b", "0,1,0",
                     "--b", "0,1,1/2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("k3lat: disc form: b 0 1: pairing given "
                                "twice\n")

    def test_glue_check_without_data(self, capsys):
        assert main(["glue-check", "--group", "2:A6"]) == 1
        assert "without coinvariant" in capsys.readouterr().err

    def test_classify_subcommand(self, capsys):
        assert main(["classify", "--group", "L2(11)"]) == 0
        rows = parse_table(capsys.readouterr().out, "csv")
        assert ("L2(11)", 22, 2, 2, ((2, 1), (1, 6)), "unknown",
                "permissive") in rows

    def test_classify_exact_notes_the_downgrade(self, capsys):
        assert main(["classify", "--group", "3^4:A_6",
                     "--mode", "exact"]) == 0
        captured = capsys.readouterr()
        assert "exact mode" in captured.err
        rows = parse_table(captured.out, "csv")
        assert all(r[-1] == "permissive" for r in rows)

    def test_classify_without_disc_fails(self, capsys):
        assert main(["classify", "--group", "2xL2(7)"]) == 1
        assert "disc" in capsys.readouterr().err

    def test_hilb2_degree_four(self, capsys):
        assert main(["hilb2", "--h2", "4"]) == 0
        out = capsys.readouterr().out
        assert "[[-2,1],[1,4]]" in out
        assert "[[2,3],[3,4]]" in out
        assert "t=1/2 k=1 l=1" in out
        assert "wall block: [[-2,1],[1,4]]" in out
        assert "line class needed: yes" in out
        assert "ample model certain: no" in out

    def test_hilb2_no_lines_clears_degree_four(self, capsys):
        assert main(["hilb2", "--h2", "4", "--no-lines"]) == 0
        assert "ample model certain: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("no_lines", [False, True])
    @pytest.mark.parametrize("args", list(HILB2_STDOUT))
    def test_hilb2_frozen_stdout(self, capsys, args, no_lines):
        body, verdicts = HILB2_STDOUT[args]
        assert main(["hilb2", "--h2", *args] +
                    ["--no-lines"] * no_lines) == 0
        assert capsys.readouterr().out == \
            f"{body}ample model certain: {verdicts[no_lines]}\n"

    def test_hilb2_degree_two_needs_a_bound(self, capsys):
        assert main(["hilb2", "--h2", "2"]) == 1
        assert "l_bound" in capsys.readouterr().err
        assert main(["hilb2", "--h2", "2", "--l-bound", "10"]) == 0

    def test_hilb2_negative_bound_is_bad_input(self, capsys):
        assert main(["hilb2", "--h2", "2", "--l-bound", "-1",
                     "--no-lines"]) == 1
        assert "l_bound" in capsys.readouterr().err

    def test_table_from_file(self, capsys, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text(emit_dataset(small_dataset()))
        assert main(["table", "--dataset", str(path),
                     "--format", "markdown"]) == 0
        captured = capsys.readouterr()
        rows = parse_table(captured.out, "markdown")
        assert len(rows) == 10
        assert captured.err.strip() == "rows: 10  warnings: 0"

    def test_table_exact_mode_warns(self, capsys, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text(emit_dataset(small_dataset()))
        assert main(["table", "--dataset", str(path), "--mode",
                     "exact"]) == 0
        err = capsys.readouterr().err
        assert "ran permissive" in err
        assert "warnings: 2" in err

    def test_table_on_empty_dataset(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("format 1\n")
        assert main(["table", "--dataset", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "group,h_sq,div,m,t_gram,k3,mode\n"
        assert "rows: 0" in captured.err

    def test_table_rejects_a_retired_field(self, capsys, tmp_path):
        path = tmp_path / "old.txt"
        path.write_text("format 1\ngroup Y\norder 2\ngram 3\n2 0 0\n0 2 0\n"
                        "0 0 2\ndisc 2\nq 3/2\ncoinv_gram 1\n-2\n"
                        "coinv_isometry 1\n-1\nend\n")
        assert main(["table", "--dataset", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 12: unknown group field 'coinv_isometry'" in captured.err

    def test_table_missing_file(self, capsys):
        assert main(["table", "--dataset", "/no/such/file"]) == 1

    def test_table_has_no_jobs_option(self, capsys):
        assert main(["table", "--jobs", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jobs 2" in captured.err

    def test_cli_import_loads_no_process_pool(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-c", "import sys, k3lat.cli; "
             "print('concurrent.futures' in sys.modules)"],
            capture_output=True, env=env, timeout=60)
        assert done.stdout == b"False\n", done.stderr.decode()

    def test_dataset_diagnostics_reach_stderr(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("format 1\ngroup X\norder 2\ngram 3\n"
                        "2 1 0\n0 2 0\n0 0 2\nend\n")
        assert main(["table", "--dataset", str(path)]) == 1
        assert "symmetry" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 1
        assert "k3lat:" in capsys.readouterr().err

    def test_bad_choice_value(self, capsys):
        assert main(["table", "--mode", "fast"]) == 1

    def test_internal_failures_exit_two(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "obstruction_report", boom)
        assert main(["hilb2", "--h2", "4"]) == 2
        assert "internal invariant violation" in capsys.readouterr().err

    def test_table_failure_exits_two_naming_the_group(self, capsys,
                                                       monkeypatch):
        def boom(grams, data, group_name, mode):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "classify", boom)
        first = next(g.name for g in builtin_dataset().groups
                     if g.disc is not None)
        assert main(["table"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("k3lat: internal invariant violation: "
                                f"{first}: boom\n")


    @pytest.mark.parametrize("argv, source", [
        (["disc", "--group", "L2(11)"], "group 'L2(11)' gram 0"),
        (["disc", "--lattice", "Leech"], "lattice 'Leech'"),
        (["disc", "--gram", "2 1; 1 6"], "gram '2 1; 1 6'"),
        (["glue-check", "--group", "L2(11)"], "group 'L2(11)' gram 0"),
        (["disc", "--gram-file", "{file}"], "gram file '{file}'"),
    ], ids=["group", "lattice", "inline", "glue-check", "file"])
    def test_gram_failure_exits_two_naming_the_gram(self, capsys,
                                                    monkeypatch, tmp_path,
                                                    argv, source):
        path = tmp_path / "n.txt"
        path.write_text("2 1\n1 6\n")

        def boom(lat):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "disc_map", boom)
        assert main([a.format(file=path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("k3lat: internal invariant violation: "
                                f"{source.format(file=path)}: boom\n")


class TestFrozenTable:
    def test_table_matches_the_frozen_csv(self, capsys):
        assert main(["table"]) == 0
        assert capsys.readouterr().out.encode() == FROZEN_TABLE.read_bytes()

    def test_table_under_python_O_matches_the_frozen_csv(self):
        # -O strips asserts: the table must not lean on any
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-O", "-m", "k3lat.cli", "table"],
                              capture_output=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == FROZEN_TABLE.read_bytes()


class TestDegenerateInputUnderPythonO:
    # -O strips asserts: the nondegeneracy check must raise without them
    def run(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        return subprocess.run([sys.executable, "-O", "-m", "k3lat.cli",
                               *argv], capture_output=True, env=env,
                              timeout=120)

    def test_glue_check(self):
        done = self.run("glue-check", "--gram", "2 1 0; 1 2 0; 0 0 4",
                        "--disc", "2,2", "--q", "0,1/2")
        assert done.returncode == 1
        assert done.stdout == b""
        assert done.stderr == (b"k3lat: disc form: pairing is degenerate: "
                               b"its radical has order 2\n")

    def test_dataset(self, tmp_path):
        path = tmp_path / "degenerate.txt"
        path.write_text("format 1\ngroup X\norder 2\ngram 3\n2 0 0\n"
                        "0 2 0\n0 0 2\ndisc 2 6\nq 0 1/6\nend\n")
        done = self.run("classify", "--group", "X", "--dataset", str(path))
        assert done.returncode == 1
        assert done.stdout == b""
        assert b"line 8: disc form: pairing is degenerate: its radical " \
            b"has order 2" in done.stderr


class TestFrozenExactTable:
    @pytest.mark.parametrize("name", EXACT_DATASETS)
    def test_exact_table_matches_the_frozen_csv(self, capsys, name):
        assert main(["table", "--mode", "exact", "--dataset",
                     str(DATA / f"{name}.txt")]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == (DATA / f"{name}.csv").read_bytes()
        assert "warnings: 0" in captured.err

    @pytest.mark.parametrize("name", EXACT_DATASETS)
    def test_exact_table_under_python_O_matches_the_frozen_csv(self, name):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-O", "-m", "k3lat.cli", "table", "--mode",
             "exact", "--dataset", str(DATA / f"{name}.txt")],
            capture_output=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == (DATA / f"{name}.csv").read_bytes()

    def test_obar_is_all_of_the_orthogonal_group_or_minus_one(self):
        full, minus = (load_dataset(str(DATA / f"{name}.txt"))
                       for name in EXACT_DATASETS)
        builtin = [g for g in builtin_dataset().groups if g.disc is not None]
        assert [g.name for g in full.groups] == \
            [g.name for g in minus.groups] == [g.name for g in builtin]
        for g, h in zip(full.groups, minus.groups):
            assert len(hom_closure_images(g.disc, g.coinv.obar)) == \
                orthogonal_group(g.disc)[1]
            assert h.coinv.obar == (negation_hom(h.disc),)

    def test_minus_one_keeps_rows_for_four_groups(self):
        rows = parse_table((DATA / "exact_minus_one.csv").read_text(), "csv")
        counts = collections.Counter(row[0] for row in rows)
        assert counts == {"L2(11)": 1, "L3(4)": 1, "A7": 3, "M10": 1}
