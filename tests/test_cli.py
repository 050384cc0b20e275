import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from jsonschema import validate

import cli_corpus
from oracles import decimal_reference, parse_int
from succession import (
    BinaryPrior,
    Evidence,
    SimplexMixturePrior,
    TableTooLarge,
    predict_block,
    predict_next,
    sufficientness_witness,
)
from succession.cli import COMMANDS, COMMON_FLAGS, main

SRC = str(Path(__file__).resolve().parents[1] / "src")

RECORD_SCHEMA = {
    "type": "object",
    "required": ["rule", "inputs", "exact", "decimal"],
    "additionalProperties": False,
    "properties": {
        "rule": {"type": "string"},
        "inputs": {
            "type": "object",
            "additionalProperties": {"type": "string"},
        },
        "exact": {
            "type": "object",
            "required": ["num", "den"],
            "additionalProperties": False,
            "properties": {
                "num": {"type": "string", "pattern": "^-?[0-9]+$"},
                "den": {"type": "string", "pattern": "^[1-9][0-9]*$"},
            },
        },
        "decimal": {"type": "string", "pattern": "^-?[0-9]+(\\.[0-9]+)?$"},
    },
}

ARRAY_SCHEMA = {"type": "array", "items": RECORD_SCHEMA, "minItems": 1}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def exact(record):
    return F(int(record["exact"]["num"]), int(record["exact"]["den"]))


class TestPredict:
    def test_haldane_frozen(self, capsys):
        rec = run_json(capsys, "predict", "--rule", "haldane", "--n", "10")
        validate(rec, RECORD_SCHEMA)
        assert exact(rec) == F(143, 144)
        assert rec["rule"] == "haldane"
        assert rec["inputs"]["n"] == "10"

    def test_block_frozen(self, capsys):
        rec = run_json(
            capsys,
            "predict", "--rule", "laplace", "--n", "100", "--block", "1000",
        )
        assert exact(rec) == F(101, 1101)

    def test_pinned_decimal_rendering(self, capsys):
        code, out, err = run(
            capsys,
            "predict", "--rule", "laplace", "--n", "100",
            "--block", "1000", "--digits", "10", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["decimal"] == "0.0917347866"

    def test_plain_line_shape(self, capsys):
        code, out, err = run(capsys, "predict", "--rule", "haldane", "--n", "10")
        assert code == 0
        assert out.strip() == (
            "haldane n=10 m=0 alpha=1: exact 143/144, "
            "decimal 0.993055555556"
        )

    def test_prior_odds_scales_the_rule(self, capsys):
        rec = run_json(
            capsys,
            "predict", "--rule", "haldane", "--n", "10", "--prior-odds", "2",
        )
        assert exact(rec) == F(275, 276)
        assert rec["inputs"]["prior_odds"] == "2"

    def test_split_prior_odds_share_the_point_mass(self, capsys):
        # masses d/(2(1+d)) at each point and 1/(1+d) on the continuous part
        for d, n in ((F(3), 10), (F(1, 2), 0), (F(7, 3), 25), (F(10**9), 4)):
            share = d / (2 * (1 + d))
            want = predict_next(BinaryPrior(share, share, 1 / (1 + d)), Evidence(n))
            rec = run_json(
                capsys, "predict", "--rule", "jeffreys-split", "--n", str(n),
                "--prior-odds", str(d),
            )
            assert exact(rec) == want
            assert rec["inputs"]["prior_odds"] == str(d)
        three_to_one = BinaryPrior(F(3, 8), F(3, 8), F(1, 4))
        assert predict_next(three_to_one, Evidence(10)) == F(209, 210)

    def test_general_masses(self, capsys):
        rec = run_json(
            capsys,
            "predict", "--rule", "general", "--n", "10",
            "--mass1", "1/4", "--mass0", "1/4", "--mass-cont", "1/2",
        )
        assert exact(rec) == F(11 * 14, 12 * 13)

    def test_disconfirmed_sample(self, capsys):
        rec = run_json(
            capsys, "predict", "--rule", "jeffreys-split", "--n", "3", "--m", "1"
        )
        assert exact(rec) == F(4, 6)

    def test_huge_sample_is_fast_and_exact(self, capsys):
        n = 10**18 * 2 - 1
        rec = run_json(capsys, "predict", "--rule", "haldane", "--n", str(n))
        assert exact(rec) == 1 - F(1, (n + 2) ** 2)


class TestPosterior:
    def test_default_rule_two_records(self, capsys):
        records = run_json(capsys, "posterior", "--n", "10")
        validate(records, ARRAY_SCHEMA)
        assert [r["rule"] for r in records] == ["posterior-ug", "bayes-factor"]
        assert exact(records[0]) == F(11, 12)
        assert exact(records[1]) == 11
        assert records[0]["inputs"]["rule"] == "haldane"

    def test_split_rule(self, capsys):
        records = run_json(
            capsys, "posterior", "--rule", "jeffreys-split", "--n", "10"
        )
        assert exact(records[0]) == F(11, 13)
        assert exact(records[1]) == F(11, 2)

    def test_split_rule_prior_odds(self, capsys):
        # the odds move the posterior, not the Bayes factor
        records = run_json(
            capsys, "posterior", "--rule", "jeffreys-split", "--n", "10",
            "--prior-odds", "3",
        )
        assert exact(records[0]) == F(33, 35)
        assert exact(records[1]) == F(11, 2)
        assert records[0]["inputs"]["prior_odds"] == "3"

    def test_zero_sample_is_the_prior(self, capsys):
        records = run_json(capsys, "posterior", "--n", "0")
        assert exact(records[0]) == F(1, 2)
        assert exact(records[1]) == 1


class TestCompare:
    def test_csv_table(self, capsys):
        code, out, err = run(
            capsys, "compare", "--n-list", "0,1,10", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["rule", "n", "inputs", "num", "den", "decimal"]
        assert len(rows) == 1 + 3 * 3
        by_key = {(r[0], r[1]): F(int(r[3]), int(r[4])) for r in rows[1:]}
        assert by_key[("laplace", "0")] == F(1, 2)
        assert by_key[("laplace", "1")] == F(2, 3)
        assert by_key[("laplace", "10")] == F(11, 12)
        assert by_key[("haldane", "0")] == F(3, 4)
        assert by_key[("haldane", "1")] == F(8, 9)
        assert by_key[("haldane", "10")] == F(143, 144)
        assert by_key[("jeffreys-split", "0")] == F(1, 2)
        assert by_key[("jeffreys-split", "1")] == F(5, 6)
        assert by_key[("jeffreys-split", "10")] == F(77, 78)

    def test_rule_subset_json(self, capsys):
        records = run_json(
            capsys, "compare", "--n-list", "5", "--rules", "haldane"
        )
        validate(records, ARRAY_SCHEMA)
        assert len(records) == 1
        assert exact(records[0]) == F(6 * 8, 7 * 7)


class TestLab:
    def test_exchangeable_json(self, capsys):
        records = run_json(
            capsys,
            "lab", "exchangeable",
            "--rule", "dirichlet", "--params", "1,1", "--length", "3",
        )
        validate(records, ARRAY_SCHEMA)
        assert {r["rule"]: exact(r) for r in records} == {
            "exchangeable": 1,
            "positive-cylinders": 1,
        }

    def test_exchangeable_plain(self, capsys):
        code, out, err = run(
            capsys,
            "lab", "exchangeable", "--rule", "haldane", "--length", "4",
        )
        assert code == 0
        assert out.splitlines() == [
            "exchangeable: yes",
            "positive-cylinders: yes",
        ]

    def test_sufficientness_witness_records(self, capsys):
        records = run_json(
            capsys,
            "lab", "sufficientness", "--rule", "hintikka", "--t", "3",
            "--max-n", "4",
        )
        assert exact(records[0]) == 0
        a, b = records[1], records[2]
        assert a["rule"] == "sufficientness-witness-a"
        assert a["inputs"]["counts"] == "0,0,2"
        assert exact(a) == F(1, 15)
        assert b["inputs"]["counts"] == "0,1,1"
        assert exact(b) == F(1, 5)
        assert a["inputs"]["type"] == b["inputs"]["type"] == "0"

    def test_sufficientness_holds_for_carnap(self, capsys):
        records = run_json(
            capsys,
            "lab", "sufficientness", "--rule", "carnap", "--t", "3",
            "--lambda", "3/2", "--max-n", "4",
        )
        assert len(records) == 1
        assert exact(records[0]) == 1

    def test_sufficientness_over_thousands_of_types(self, capsys):
        code, out, err = run(
            capsys,
            "lab", "sufficientness", "--rule", "carnap", "--t", "5000",
            "--lambda", "1", "--max-n", "0",
        )
        assert code == 0
        assert out == "sufficientness: holds for all samples up to n=0\n"

    def test_sufficientness_of_a_type_symmetric_prior_is_fast(self, capsys):
        # Laplace(1, 1) over two types is type-symmetric, so each rule call
        # answers from the observed types without a posterior marginal
        start = time.perf_counter()
        code, out, err = run(
            capsys, "lab", "sufficientness", "--rule", "laplace", "--max-n", "200"
        )
        assert time.perf_counter() - start < 2
        assert code == 0
        assert out == "sufficientness: holds for all samples up to n=200\n"

    def test_df_check_frozen(self, capsys):
        records = run_json(
            capsys, "lab", "df-check", "--urn", "5,5", "--k", "3"
        )
        values = {r["rule"]: exact(r) for r in records}
        assert values == {
            "distance": F(1, 6),
            "bound": F(6, 5),
            "within-bound": 1,
        }

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["--urn", "5,5", "--k", "3"],
                "distance: 1/6 (0.166666666667)\n"
                "bound: 6/5 (1.200000000000)\n"
                "within bound: yes\n",
            ),
            (
                ["--urn", "5,5", "--k", "3", "--format", "csv"],
                "rule,n,inputs,num,den,decimal\n"
                'distance,,"urn=5,5 k=3",1,6,0.166666666667\n'
                'bound,,"urn=5,5 k=3",6,5,1.200000000000\n'
                'within-bound,,"urn=5,5 k=3",1,1,1.000000000000\n',
            ),
            (
                ["--urn", "3,2,1", "--k", "2"],
                "distance: 11/45 (0.244444444444)\n"
                "bound: 2 (2.000000000000)\n"
                "within bound: yes\n",
            ),
            (
                ["--urn", "3,2,1", "--k", "2", "--format", "csv", "--digits", "4"],
                "rule,n,inputs,num,den,decimal\n"
                'distance,,"urn=3,2,1 k=2",11,45,0.2444\n'
                'bound,,"urn=3,2,1 k=2",2,1,2.0000\n'
                'within-bound,,"urn=3,2,1 k=2",1,1,1.0000\n',
            ),
        ],
    )
    def test_df_check_plain_and_csv_frozen(self, capsys, argv, expected):
        assert run(capsys, "lab", "df-check", *argv) == (0, expected, "")

    def test_urn_sequence_listing(self, capsys):
        records = run_json(capsys, "lab", "urn", "--colors", "1,1", "--k", "2")
        probs = {r["inputs"]["sequence"]: exact(r) for r in records}
        assert probs == {"00": 0, "01": F(1, 2), "10": F(1, 2), "11": 0}

    def test_urn_class_listing_above_cap(self, capsys):
        records = run_json(capsys, "lab", "urn", "--colors", "5,5", "--k", "9")
        assert all(r["rule"] == "urn-class" for r in records)
        assert len(records) == 10
        total = sum(
            exact(r)
            * _multiplicity(tuple(map(int, r["inputs"]["counts"].split(","))))
            for r in records
        )
        assert total == 1


def _multiplicity(counts):
    import math

    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("# defaults\nrule=haldane\ndigits=3\n")
        code, out, err = run(
            capsys,
            "predict", "--config", str(cfg), "--n", "10", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["rule"] == "haldane"
        assert rec["decimal"] == "0.993"

    def test_command_line_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("rule=haldane\n")
        rec = run_json(
            capsys,
            "predict", "--config", str(cfg), "--n", "10", "--rule", "laplace",
        )
        assert rec["rule"] == "laplace"
        assert exact(rec) == F(11, 12)

    def test_underscore_keys_are_normalized(self, capsys, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("prior_odds=2\n")
        rec = run_json(
            capsys,
            "predict", "--config", str(cfg), "--rule", "haldane", "--n", "10",
        )
        assert exact(rec) == F(275, 276)

    def test_unknown_key_fails(self, capsys, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("frobnicate=1\n")
        code, out, err = run(capsys, "predict", "--config", str(cfg), "--n", "1")
        assert code == 2

    def test_key_of_another_command_fails(self, capsys, tmp_path):
        # --length is a flag of lab exchangeable, not of lab sufficientness:
        # the package refuses it before argparse sees it
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("rule=laplace\nlength=3\n")
        code, out, err = run(capsys, "lab", "sufficientness", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {cfg}:2: key 'length' is not a flag of 'lab sufficientness'\n"
        )

    def test_missing_file_fails(self, capsys):
        code, out, err = run(
            capsys, "predict", "--config", "/no/such/file", "--n", "1"
        )
        assert code == 2
        assert "cannot read config" in err

    def test_lab_command_takes_config(self, capsys, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("colors=2,2\nk=2\n")
        records = run_json(capsys, "lab", "urn", "--config", str(cfg))
        probs = {r["inputs"]["sequence"]: exact(r) for r in records}
        assert probs == {"00": F(1, 6), "01": F(1, 3), "10": F(1, 3), "11": F(1, 6)}
        assert records[0]["inputs"]["colors"] == "2,2"

    def test_malformed_line_fails(self, capsys, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("just some words\n")
        code, out, err = run(capsys, "predict", "--config", str(cfg), "--n", "1")
        assert code == 2


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("predict", "--rule", "laplace"),  # missing --n
            ("predict", "--n", "3"),  # missing --rule
            ("predict", "--rule", "laplace", "--n", "3", "--prior-odds", "2"),
            ("predict", "--rule", "haldane", "--n", "3", "--beta", "2"),
            ("predict", "--rule", "general", "--n", "3", "--mass1", "1/2"),
            ("predict", "--rule", "nonsense", "--n", "3"),
            ("predict", "--rule", "laplace", "--n", "3", "--alpha", "0.0.1"),
            ("predict", "--rule", "laplace", "--n", "-4"),
            ("predict", "--rule", "haldane", "--n", "3", "--mass1", "1/2"),
            ("compare",),  # missing --n-list
            ("compare", "--n-list", "1", "--rules", "general"),
            ("posterior", "--rule", "laplace", "--n", "3"),  # no point mass
            ("lab", "urn", "--colors", "1,1", "--k", "3"),  # SampleTooLarge
            ("lab", "df-check", "--urn", "1,1", "--k", "3"),
            ("lab", "exchangeable", "--rule", "dirichlet", "--length", "2"),
            ("lab", "sufficientness", "--rule", "carnap", "--t", "3"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2

    @pytest.mark.parametrize("path", list(COMMANDS))
    def test_a_prefix_of_a_flag_is_no_flag(self, capsys, path):
        # argparse's abbreviations are off: "--n" is not "--n-list", and a
        # prefix is refused unless it is a flag of the command itself
        flags = {"--help", *(flag for flag, _ in (*COMMANDS[path][1], *COMMON_FLAGS))}
        for flag in flags:
            for prefix in (flag[:end] for end in range(3, len(flag))):
                if prefix in flags:
                    continue
                code, out, err = run(capsys, *path.split(), prefix, "1")
                assert code == 2, prefix
                assert f"error: unrecognized arguments: {prefix} 1" in err, prefix

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (("predict", "--n", "3"), "error: ValueError: missing --rule"),
            (("predict", "--rule", "laplace"), "error: ValueError: missing --n"),
            (("compare",), "error: ValueError: missing --n-list"),
            (("lab", "exchangeable", "--rule", "laplace"),
             "error: ValueError: missing --length"),
            (("lab", "df-check", "--k", "2"), "error: ValueError: missing --urn"),
            (("lab", "df-check", "--urn", "2,2"), "error: ValueError: missing --k"),
            (("lab", "urn", "--k", "2"), "error: ValueError: missing --colors"),
            (("lab", "urn", "--colors", "2,2"), "error: ValueError: missing --k"),
            (("lab", "sufficientness"), "error: ValueError: missing --rule"),
            (("predict", "--rule", "haldane", "--n", "3", "--mass0", "1/2"),
             "error: ValueError: --mass1/--mass0/--mass-cont require --rule general"),
            (("predict", "--rule", "jeffreys-split", "--n", "3", "--beta", "2"),
             "error: ValueError: rule 'jeffreys-split' is defined with beta = 1"),
            (("predict", "--rule", "general", "--n", "3", "--mass1", "1/2"),
             "error: ValueError: --rule general needs --mass1, --mass0, and "
             "--mass-cont"),
            (("predict", "--rule", "general", "--n", "3", "--mass1", "1/2",
              "--mass0", "0", "--mass-cont", "1/2", "--prior-odds", "2"),
             "error: ValueError: --prior-odds cannot be combined with explicit "
             "masses"),
            (("predict", "--rule", "laplace", "--n", "3", "--prior-odds", "2"),
             "error: ValueError: --prior-odds is meaningless for laplace (no mass "
             "on the no-exceptions hypothesis)"),
            (("lab", "exchangeable", "--rule", "dirichlet", "--length", "2"),
             "error: ValueError: --rule dirichlet needs --params"),
            (("lab", "sufficientness", "--rule", "carnap", "--t", "3"),
             "error: ValueError: --rule carnap needs --t and --lambda"),
            (("lab", "exchangeable", "--rule", "hintikka", "--length", "2"),
             "error: ValueError: --rule hintikka needs --t"),
            (("lab", "exchangeable", "--rule", "dirichlet", "--params", "2",
              "--length", "2"),
             "error: ValueError: need at least two Dirichlet parameters"),
            (("compare", "--n-list", "1", "--rules", "laplace,general"),
             "succession compare: error: argument --rules: unknown rule "
             "'general'; choose from laplace, haldane, jeffreys-split"),
            (("predict", "--rule", "laplace", "--n", "-4"),
             "succession predict: error: argument --n: must be nonnegative"),
            (("predict", "--rule", "laplace", "--n", "3", "--block", "0"),
             "succession predict: error: argument --block: must be at least 1"),
            (("predict", "--rule", "laplace", "--n", "x"),
             "succession predict: error: argument --n: not an integer: 'x'"),
            (("predict", "--rule", "laplace", "--n", "3", "--alpha", "0"),
             "succession predict: error: argument --alpha: must be positive"),
            (("predict", "--rule", "general", "--n", "3", "--mass1", "y"),
             "succession predict: error: argument --mass1: not a rational: 'y'"),
            (("predict", "--rule", "laplace", "--n", "3", "--digits", "0"),
             "succession predict: error: argument --digits: digits must be in "
             "1..10000"),
            (("lab", "urn", "--colors", "1,-1", "--k", "1"),
             "succession lab urn: error: argument --colors: expected "
             "comma-separated nonnegative integers, got '1,-1'"),
            (("lab", "exchangeable", "--params", "1,0"),
             "succession lab exchangeable: error: argument --params: expected "
             "comma-separated positive rationals, got '1,0'"),
            (("lab", "exchangeable", "--rule", "hintikka", "--t", "1",
              "--length", "1"),
             "error: ValueError: need at least two outcome types"),
            (("predict", "--rule", "laplace", "--n", "1", "--alpha", "1e1000000"),
             "succession predict: error: argument --alpha: not a rational: "
             "'1e1000000'"),
            (("posterior", "--rule", "general", "--n", "3", "--mass1", "1/2",
              "--mass0", "1/2", "--mass-cont", "0"),
             "error: ValueError: the prior has no continuous alternative; the "
             "Bayes factor is not defined"),
            (("posterior", "--rule", "laplace", "--n", "3"),
             "error: ValueError: the prior puts no mass on a universal "
             "generalization; posterior and Bayes factor are not defined"),
            (("predict", "--rule", "haldane", "--n", "1_0"),
             "succession predict: error: argument --n: not an integer: '1_0'"),
            (("predict", "--rule", "haldane", "--n", "\u0663"),
             "succession predict: error: argument --n: not an integer: '\u0663'"),
        ],
    )
    def test_usage_error_messages(self, capsys, argv, last_line):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == last_line

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("lab", "exchangeable", "--rule", "dirichlet", "--params", "1,1",
              "--t", "3", "--length", "2"), "--t"),
            (("lab", "sufficientness", "--rule", "dirichlet", "--params", "1,1",
              "--lambda", "2"), "--lambda"),
            (("lab", "exchangeable", "--rule", "carnap", "--t", "3", "--lambda", "1",
              "--params", "1,1,1", "--length", "2"), "--params"),
            (("lab", "sufficientness", "--rule", "carnap", "--t", "3", "--lambda", "1",
              "--alpha", "2"), "--alpha"),
            (("lab", "exchangeable", "--rule", "hintikka", "--t", "3", "--alpha", "5",
              "--length", "2"), "--alpha"),
            (("lab", "sufficientness", "--rule", "hintikka", "--t", "3",
              "--params", "1,1,1"), "--params"),
            (("lab", "exchangeable", "--rule", "laplace", "--t", "3", "--length", "2"),
             "--t"),
            (("lab", "sufficientness", "--rule", "haldane", "--alpha", "2",
              "--lambda", "1"), "--lambda"),
        ],
    )
    def test_lab_refuses_flags_its_rule_does_not_read(self, capsys, argv, flag):
        # one case or more per rule family; before, each ran and ignored the flag
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: rule {argv[3]!r} does not take {flag}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("lab", "exchangeable", "--rule", "hintikka", "--t", "3", "--alpha", "1",
             "--length", "2"),
            ("lab", "sufficientness", "--rule", "jeffreys-split", "--alpha", "2"),
        ],
    )
    def test_lab_accepts_a_binary_alpha_and_a_default_one(self, capsys, argv):
        # --alpha defaults to 1, so 1 cannot be told from no flag at all
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")

    def test_falsified_generalization_exits_3(self, capsys):
        code, out, err = run(capsys, "posterior", "--n", "5", "--m", "1")
        assert code == 3
        assert "UGFalsified" in err

    def test_zero_probability_evidence_exits_3(self, capsys):
        code, out, err = run(
            capsys,
            "predict", "--rule", "general", "--n", "1", "--m", "1",
            "--mass1", "1/2", "--mass0", "1/2", "--mass-cont", "0",
        )
        assert code == 3
        assert "ZeroEvidenceProbability" in err

    def test_oversized_urn_exits_4_before_the_work(self, capsys):
        code, out, err = run(
            capsys, "lab", "df-check", "--urn", "3000,3000", "--k", "1"
        )
        assert code == 4
        assert "TableTooLarge" in err

    @pytest.mark.parametrize(
        "t, max_n", [("200", "6"), ("2", "100000000"), ("30", "4"), ("2", "1446")]
    )
    def test_oversized_sufficientness_search_exits_4(self, capsys, t, max_n):
        code, out, err = run(
            capsys,
            "lab", "sufficientness", "--rule", "carnap", "--lambda", "1",
            "--t", t, "--max-n", max_n,
        )
        assert code == 4
        assert "TableTooLarge" in err

    @pytest.mark.parametrize(
        "t, max_n",
        [(200, 6), (2, 10**8), (10**100, 1), (30, 4), (2, 1446), (2**20 + 1, 0)],
    )
    def test_sufficientness_search_refused_before_any_rule_call(self, t, max_n):
        def never(counts):
            raise AssertionError("the rule was called")

        start = time.perf_counter()
        with pytest.raises(TableTooLarge, match="count vectors"):
            sufficientness_witness(never, t, max_n)
        assert time.perf_counter() - start < 0.05

    def test_oversized_table_exits_4(self, capsys):
        code, out, err = run(
            capsys,
            "lab", "exchangeable", "--rule", "laplace", "--length", "21",
        )
        assert code == 4
        assert "TableTooLarge" in err

    def test_missing_length_is_refused_before_the_rule_is_built(
        self, capsys, monkeypatch
    ):
        def never(t):
            raise AssertionError("the prior was built")

        monkeypatch.setattr(SimplexMixturePrior, "hintikka_default", never)
        code, out, err = run(
            capsys, "lab", "exchangeable", "--rule", "hintikka", "--t", "100000"
        )
        assert code == 2
        assert err.splitlines()[-1] == "error: ValueError: missing --length"

    @pytest.mark.parametrize(
        "argv",
        [
            ("lab", "exchangeable", "--rule", "hintikka", "--t", str(10**30),
             "--length", "1"),
            ("lab", "sufficientness", "--rule", "hintikka", "--t", str(10**30)),
        ],
    )
    def test_huge_hintikka_lab_exits_4(self, capsys, argv):
        # the lab's caps refuse these; building the prior would overflow
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert err.startswith("error: TableTooLarge: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("lab", "exchangeable", "--rule", "hintikka", "--t", "1000",
             "--length", "2"),
            ("lab", "sufficientness", "--rule", "hintikka", "--t", "1048577",
             "--max-n", "0"),
            ("lab", "exchangeable", "--rule", "hintikka", "--t", "100000",
             "--length", "1"),
        ],
    )
    def test_refused_hintikka_lab_never_builds_the_prior(
        self, capsys, monkeypatch, argv
    ):
        def never(t):
            raise AssertionError("the prior was built")

        monkeypatch.setattr(SimplexMixturePrior, "hintikka_default", never)
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert "TableTooLarge" in err

    def test_hintikka_lab_builds_the_prior_once(self, capsys, monkeypatch):
        built = []
        build = SimplexMixturePrior.hintikka_default

        def counted(t):
            built.append(t)
            return build(t)

        monkeypatch.setattr(SimplexMixturePrior, "hintikka_default", counted)
        code, out, err = run(
            capsys, "lab", "sufficientness", "--rule", "hintikka", "--t", "3",
            "--max-n", "2",
        )
        assert code == 0
        assert built == [3]

    @pytest.mark.parametrize(
        "argv",
        [
            ("lab", "exchangeable", "--rule", "hintikka", "--t", "1000",
             "--length", "2"),
            ("lab", "urn", "--colors", ",".join(["1"] * 1500), "--k", "1"),
        ],
    )
    def test_oversized_class_table_exits_4(self, capsys, argv):
        # t**length fits the cap; the count classes times t entries do not
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == 4
        assert "TableTooLarge" in err

    def test_exponent_literal_exits_2_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "predict", "--rule", "laplace", "--alpha", "1e1000000", "--n", "1"
        )
        assert time.perf_counter() - start < 1
        assert code == 2

    def test_success_exits_0(self, capsys):
        code, out, err = run(capsys, "predict", "--rule", "laplace", "--n", "0")
        assert code == 0
        assert err == ""


@pytest.mark.parametrize(
    "argv, terms",
    [
        (("--beta", "1/2", "--n", "10", "--block", "100000000000"), "100000000000"),
        (("--alpha", "1/2", "--beta", "1/2", "--n", "1000000000"), "1000000000"),
    ],
)
def test_untelescoped_products_exit_4_fast(argv, terms):
    # a non-integer parameter leaves no short route: the product would need
    # every term, and the term cap refuses it before the first
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "succession", "predict", "--rule", "laplace", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: ResourceLimit: a rising factorial of {terms} terms exceeds the "
        "cap of 10000 terms\n"
    )


def _child_env(**extra):
    # a `python -S` child finds the package through PYTHONPATH, with stdout
    # buffered unless a test sets PYTHONUNBUFFERED in extra
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": SRC, **extra}


def test_import_needs_no_typing_module():
    # typing adds about 5 ms to each process start on CPython 3.11, and no
    # module needs it at run time
    proc = subprocess.run(
        [
            sys.executable, "-S", "-c",
            "import sys, succession.cli; print('typing' in sys.modules)",
        ],
        capture_output=True,
        env=_child_env(),
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


FRESH_COMMANDS = (
    ("predict", "--rule", "haldane", "--n", "5"),
    ("posterior", "--rule", "haldane", "--n", "5"),
    ("compare", "--n-list", "1,10"),
    ("lab", "exchangeable", "--rule", "laplace", "--length", "3"),
    ("lab", "sufficientness", "--rule", "carnap", "--t", "2", "--lambda", "1",
     "--max-n", "2"),
    ("lab", "df-check", "--urn", "2,2", "--k", "2"),
    ("lab", "urn", "--colors", "2,2", "--k", "2"),
)
# the module a lab command loads only when it runs, and ones none may load
WATCHED = ("succession.lab", "dataclasses", "inspect", "typing")


@pytest.mark.parametrize(
    "argv",
    [
        argv + fmt
        for argv in FRESH_COMMANDS
        for fmt in ((), ("--format", "json"), ("--format", "csv"))
        if argv[0] != "lab" or fmt
    ],
    ids=" ".join,
)
def test_a_fresh_process_loads_what_its_command_uses(capsys, argv):
    # in-process runs share one sys.modules, so only a fresh process shows
    # what its command imports: lab only for a lab command, dataclasses,
    # inspect and typing never
    code = (
        "import sys; from succession.cli import main; "
        "code = main(sys.argv[1:]); "
        f"print(*(m for m in {WATCHED!r} if m in sys.modules), file=sys.stderr); "
        "sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        capture_output=True,
        env=_child_env(),
        text=True,
        timeout=60,
    )
    loaded = "succession.lab\n" if argv[0] == "lab" else "\n"
    assert (proc.returncode, proc.stderr) == (0, loaded)
    assert (0, proc.stdout, "") == run(capsys, *argv)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_1_quietly(unbuffered):
    # the reader is gone before the child writes: unbuffered, the handler's
    # print meets the broken pipe; buffered, main's flush does. Either way
    # exit 1 and nothing on stderr, and nothing fails again at exit
    env = _child_env(PYTHONUNBUFFERED="1") if unbuffered else _child_env()
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "succession", "lab", "urn",
             "--colors", "2,3", "--k", "2", "--format", "json"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_a_broken_stdout_without_a_descriptor_exits_1(monkeypatch, capfd):
    # in-process, stdout may have no file descriptor to point at devnull:
    # main still returns 1 and leaves the process's own fd 1 alone
    class Broken(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", Broken())
    assert main(["predict", "--rule", "haldane", "--n", "5"]) == 1
    os.write(1, b"fd 1 still writes\n")
    assert capfd.readouterr().out == "fd 1 still writes\n"


def test_a_stdout_closed_before_start_exits_1_quietly():
    # with fd 1 closed when the interpreter starts, sys.stdout is None and
    # print writes nowhere: exit 1 and nothing on stderr, as for a closed pipe
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "succession", "predict", "--rule", "haldane",
         "--n", "5"],
        preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE,
        env=_child_env(),
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["predict", "--rule", "haldane", "--n", "5"], 1),
        (["lab", "urn", "--colors", "2,3", "--k", "2"], 1),
        (["posterior", "--rule", "haldane", "--n", "5", "--m", "1"], 3),
    ],
)
def test_a_missing_stdout_exits_1_after_the_work(capsys, monkeypatch, argv, code):
    # in-process: an answer with nowhere to go exits 1 without a word, while
    # an error found before any output keeps its own exit code and message
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == code
    assert (capsys.readouterr().err == "") == (code == 1)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [
            sys.executable, "-m", "succession",
            "predict", "--rule", "haldane", "--n", "5", "--format", "json",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert F(int(rec["exact"]["num"]), int(rec["exact"]["den"])) == F(48, 49)


def test_cli_corpus_replays():
    # every argv of cli_corpus.ARGVS through main, against cli_corpus.json;
    # after a change to the contract made on purpose, regenerate the record
    # with `PYTHONPATH=src python -S tests/cli_corpus.py --regenerate`
    failures = cli_corpus.check()
    assert not failures, "\n".join(failures)


class TestLongNumbers:
    """Output longer than CPython's 4300-digit cap on int-to-str."""

    def test_ten_thousand_digits(self, capsys):
        rec = run_json(
            capsys, "predict", "--rule", "haldane", "--n", "5", "--digits", "10000"
        )
        validate(rec, RECORD_SCHEMA)
        assert rec["decimal"] == decimal_reference(F(48, 49), 10_000)

    def test_exact_pair_beyond_the_cap(self, capsys):
        rec = run_json(
            capsys, "predict", "--rule", "laplace", "--alpha", "1/3",
            "--beta", "1/7", "--n", "0", "--block", "4000",
        )
        validate(rec, RECORD_SCHEMA)
        assert len(rec["exact"]["num"]) > 4300
        value = F(parse_int(rec["exact"]["num"]), parse_int(rec["exact"]["den"]))
        prior = BinaryPrior.laplace(F(1, 3), F(1, 7))
        assert value == predict_block(prior, Evidence(0), 4000)


class TestLongInputs:
    """Input longer than CPython's 4300-digit cap on str-to-int."""

    def test_five_thousand_digit_sample(self, capsys):
        n = 10**5_000 - 1
        rec = run_json(capsys, "predict", "--rule", "haldane", "--n", "9" * 5_000)
        validate(rec, RECORD_SCHEMA)
        assert rec["inputs"]["n"] == "9" * 5_000
        value = F(parse_int(rec["exact"]["num"]), parse_int(rec["exact"]["den"]))
        assert value == 1 - F(1, (n + 2) ** 2)

    def test_long_rational_parameter(self, capsys):
        alpha = F(1, parse_int("7" * 4_400))
        rec = run_json(
            capsys, "predict", "--rule", "laplace", "--alpha", "1/" + "7" * 4_400,
            "--n", "3",
        )
        validate(rec, RECORD_SCHEMA)
        assert rec["inputs"]["alpha"] == "1/" + "7" * 4_400
        value = F(parse_int(rec["exact"]["num"]), parse_int(rec["exact"]["den"]))
        # a pure Beta(alpha, 1) prior predicts (alpha + n) / (alpha + 1 + n)
        assert value == (alpha + 3) / (alpha + 4)
