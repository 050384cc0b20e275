"""The command-line contract as a replayable corpus.

Every argv in ``ARGVS`` runs through ``succession.cli.main`` in-process.
``cli_corpus.json`` beside this file records, per argv, the exit code and
the SHA-256 of stdout and of stderr, plus the full text of either when it
is short, so that a failure can show a diff. Check the package against the
record, or record it anew after a change to the contract made on purpose
(and name the argvs that changed in CHANGES.md)::

    PYTHONPATH=src python -S tests/cli_corpus.py --check
    PYTHONPATH=src python -S tests/cli_corpus.py --regenerate

Standard library only, so it runs without pytest and under ``python -S``.

argparse writes its own usage block and help text, and their wording may
differ across Python versions. So for an exit that argparse makes, only
the ``error:`` line is kept, cut before argparse's list of choices, and a
``--help`` page is kept as the flags and choice sets it names.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import itertools
import json
import re
import sys
import tempfile
from pathlib import Path

from succession.cli import main

RECORD = Path(__file__).with_name("cli_corpus.json")
# outputs up to this many characters are stored in full beside their hash
SHORT = 240
# "{dir}" in an argv is the directory the CONFIGS files are written to
CONFIGS = {
    "laplace.cfg": "# defaults for predict\nrule = laplace\nn = 10\n",
    "haldane.cfg": "rule=haldane\nn=5\nm=0\nformat=json\n",
    "lab.cfg": "rule = dirichlet\nparams = 1,2\nlength = 3\n",
    "digits.cfg": "\n# blank lines and comments are skipped\ndigits = 30\n",
    "self.cfg": "config = other.cfg\nrule = jeffreys-split\nn = 4\n",
    "bad-line.cfg": "rule = laplace\nthis line has no equals sign\n",
    "bad-value.cfg": "n = many\n",
    "unknown-key.cfg": "colour = red\n",
    "urn.cfg": "urn = 3,3\nk = 2\n",
    "rule-length.cfg": "rule = laplace\nlength = 3\n",
}
FORMATS = ((), ("--format", "json"), ("--format", "csv"))
DIGITS = ((), ("--digits", "1"), ("--digits", "30"))


def _variants(*bases: tuple[str, ...]) -> list[tuple[str, ...]]:
    # each base in every format, and in plain text at two more precisions
    out = [base + fmt for base in bases for fmt in FORMATS]
    out += [base + digits for base in bases for digits in DIGITS[1:]]
    return out


def _predict() -> list[tuple[str, ...]]:
    out = []
    evidence = (("--n", "0"), ("--n", "3"), ("--n", "10", "--m", "2"),
                ("--n", "2", "--m", "5"), ("--n", "1000"),
                ("--n", "1000000000000000000"))
    priors = (
        ("--rule", "laplace"), ("--rule", "laplace", "--alpha", "2"),
        ("--rule", "laplace", "--alpha", "1/2", "--beta", "3/2"),
        ("--rule", "haldane"), ("--rule", "haldane", "--alpha", "3"),
        ("--rule", "jeffreys-split"),
        ("--rule", "jeffreys-split", "--alpha", "0.5"),
        ("--rule", "jeffreys-split", "--prior-odds", "3"),
        ("--rule", "haldane", "--prior-odds", "1/4"),
        ("--rule", "general", "--mass1", "1/4", "--mass0", "1/4",
         "--mass-cont", "1/2", "--alpha", "2", "--beta", "3"),
        ("--rule", "general", "--mass1", "1/2", "--mass0", "0",
         "--mass-cont", "1/2"),
    )
    for prior, ev in itertools.product(priors, evidence):
        out += _variants(("predict", *prior, *ev))
    for prior, block in itertools.product(priors[:6], ("1", "5", "100")):
        out.append(("predict", *prior, "--n", "7", "--block", block))
    out += _variants(
        ("predict", "--rule", "laplace", "--n", "4", "--block", "3"),
        ("predict", "--rule", "laplace", "--alpha", "1/2", "--n", "20",
         "--m", "20"),
    )
    return out


def _posterior() -> list[tuple[str, ...]]:
    out = []
    priors = (
        (), ("--rule", "haldane", "--alpha", "2"), ("--rule", "jeffreys-split"),
        ("--rule", "jeffreys-split", "--prior-odds", "9"),
        ("--rule", "general", "--mass1", "1/3", "--mass0", "1/3",
         "--mass-cont", "1/3", "--alpha", "1/2", "--beta", "2"),
    )
    evidence = (("--n", "0"), ("--n", "5"), ("--n", "40", "--m", "1"),
                ("--n", "123456789012345678901234567890"))
    for prior, ev in itertools.product(priors, evidence):
        out += _variants(("posterior", *prior, *ev))
    return out


def _compare() -> list[tuple[str, ...]]:
    out = []
    for n_list, rules, alpha in itertools.product(
        ("0", "1,10,100", "5,1000000"),
        ((), ("--rules", "laplace"), ("--rules", "haldane,jeffreys-split")),
        ((), ("--alpha", "3/2")),
    ):
        out += _variants(("compare", "--n-list", n_list, *rules, *alpha))
    return out


def _lab() -> list[tuple[str, ...]]:
    out = []
    rules = (
        ("--rule", "laplace"), ("--rule", "laplace", "--alpha", "2"),
        ("--rule", "haldane"), ("--rule", "jeffreys-split", "--alpha", "1/2"),
        ("--rule", "dirichlet", "--params", "1,1"),
        ("--rule", "dirichlet", "--params", "1/3,1/2,5/7"),
        ("--rule", "carnap", "--t", "3", "--lambda", "3/2"),
        ("--rule", "carnap", "--t", "2", "--lambda", "1"),
        ("--rule", "hintikka", "--t", "2"), ("--rule", "hintikka", "--t", "3"),
    )
    for rule, length in itertools.product(rules, ("1", "3", "5")):
        out += _variants(("lab", "exchangeable", *rule, "--length", length))
    for rule, max_n in itertools.product(rules, ((), ("--max-n", "0"),
                                                 ("--max-n", "3"))):
        out += _variants(("lab", "sufficientness", *rule, *max_n))
    for urn, k in (("2,2", "1"), ("2,2", "3"), ("5,5", "3"), ("3,1,2", "2"),
                   ("4,0,4", "4"), ("1,1,1,1", "4"), ("6,6", "12"), ("1,9", "2")):
        out += _variants(("lab", "df-check", "--urn", urn, "--k", k))
    for colors, k in (("1,1", "1"), ("2,2", "2"), ("2,1", "3"), ("3,3,3", "2"),
                      ("5,4", "5"), ("2,0,1", "2"), ("9,9", "9"), ("4,4,4,4", "5"),
                      ("10,1", "10")):
        out += _variants(("lab", "urn", "--colors", colors, "--k", k))
    return out


def _refusals() -> list[tuple[str, ...]]:
    # exits 2 (argparse's and the package's usage errors), 3 and 4
    out = [
        (), ("bogus",), ("lab",), ("lab", "bogus"), ("predict",),
        ("predict", "--n", "3"), ("predict", "--rule", "laplace"),
        ("predict", "--rule", "nope", "--n", "1"),
        ("predict", "--rule", "laplace", "--n"),
        ("predict", "--rule", "laplace", "--n", "1", "--zz", "1"),
        # a prefix of a flag is no flag: argparse's abbreviations are off
        ("compare", "--n", "3"),
        ("predict", "--rule", "laplace", "--alph", "2", "--n", "3"),
        ("lab", "exchangeable", "--rule", "carnap", "--t", "3", "--lam", "2",
         "--len", "3"),
        ("predict", "--rule", "laplace", "--n", "x"),
        ("predict", "--rule", "laplace", "--n", "-4"),
        ("predict", "--rule", "laplace", "--n", "1_000"),
        ("predict", "--rule", "laplace", "--n", "3", "--block", "0"),
        ("predict", "--rule", "laplace", "--n", "3", "--alpha", "0"),
        ("predict", "--rule", "laplace", "--n", "3", "--alpha", "-1/2"),
        ("predict", "--rule", "laplace", "--n", "3", "--alpha", "1/0"),
        ("predict", "--rule", "laplace", "--n", "3", "--alpha", "nan"),
        ("predict", "--rule", "laplace", "--n", "3", "--format", "xml"),
        ("predict", "--rule", "laplace", "--n", "3", "--digits", "0"),
        ("predict", "--rule", "laplace", "--n", "3", "--digits", "10001"),
        ("predict", "--rule", "haldane", "--n", "3", "--mass0", "1/2"),
        ("predict", "--rule", "jeffreys-split", "--n", "3", "--beta", "2"),
        ("predict", "--rule", "general", "--n", "3", "--mass1", "1/2"),
        ("predict", "--rule", "general", "--n", "3", "--mass1", "1/2",
         "--mass0", "0", "--mass-cont", "1/2", "--prior-odds", "2"),
        ("predict", "--rule", "general", "--n", "3", "--mass1", "1/2",
         "--mass0", "1/4", "--mass-cont", "1/2"),
        ("predict", "--rule", "general", "--n", "3", "--mass1", "-1",
         "--mass0", "1", "--mass-cont", "1"),
        ("predict", "--rule", "laplace", "--n", "3", "--prior-odds", "2"),
        ("predict", "--rule", "haldane", "--n", "3", "--prior-odds", "0"),
        ("posterior", "--rule", "laplace", "--n", "3"),
        ("posterior", "--n", "3", "--m", "1"),
        ("posterior", "--rule", "jeffreys-split", "--n", "3", "--m", "2"),
        ("posterior", "--rule", "general", "--mass1", "1/2", "--mass0", "1/2",
         "--mass-cont", "0", "--n", "3"),
        ("posterior", "--rule", "haldane"),
        ("predict", "--rule", "general", "--mass1", "1", "--mass0", "0",
         "--mass-cont", "0", "--n", "3", "--m", "1"),
        ("predict", "--rule", "general", "--mass1", "0", "--mass0", "1",
         "--mass-cont", "0", "--n", "1", "--m", "3"),
        ("predict", "--rule", "laplace", "--alpha", "1/2", "--beta", "1/2",
         "--n", "1000000000"),
        ("predict", "--rule", "laplace", "--beta", "1/2", "--n", "10",
         "--block", "100000000000"),
        ("predict", "--rule", "general", "--mass1", "1/2", "--mass0", "0",
         "--mass-cont", "1/2", "--alpha", "1/2", "--beta", "1/2", "--n",
         "1999999999999999999"),
        ("compare",), ("compare", "--n-list", "1,x"),
        ("compare", "--n-list", "1", "--rules", "laplace,general"),
        ("compare", "--n-list", "1", "--alpha", "0"),
        ("lab", "exchangeable", "--rule", "laplace"),
        ("lab", "exchangeable", "--length", "3"),
        ("lab", "exchangeable", "--rule", "laplace", "--length", "0"),
        ("lab", "exchangeable", "--rule", "laplace", "--length", "21"),
        ("lab", "exchangeable", "--rule", "dirichlet", "--length", "2"),
        ("lab", "exchangeable", "--rule", "dirichlet", "--params", "2",
         "--length", "2"),
        ("lab", "exchangeable", "--rule", "dirichlet", "--params", "1,0",
         "--length", "2"),
        ("lab", "exchangeable", "--rule", "dirichlet", "--params", "1,1",
         "--alpha", "2", "--length", "2"),
        ("lab", "exchangeable", "--rule", "laplace", "--t", "3", "--length", "2"),
        ("lab", "exchangeable", "--rule", "laplace", "--params", "1,1",
         "--length", "2"),
        ("lab", "exchangeable", "--rule", "haldane", "--lambda", "1",
         "--length", "2"),
        ("lab", "exchangeable", "--rule", "hintikka", "--length", "2"),
        ("lab", "exchangeable", "--rule", "hintikka", "--t", "1", "--length", "2"),
        ("lab", "exchangeable", "--rule", "hintikka", "--t", "100000",
         "--length", "1"),
        ("lab", "exchangeable", "--rule", "hintikka", "--t",
         "1000000000000000000000000000000", "--length", "1"),
        ("lab", "exchangeable", "--rule", "carnap", "--t", "3", "--length", "2"),
        ("lab", "exchangeable", "--rule", "carnap", "--lambda", "1",
         "--length", "2"),
        ("lab", "exchangeable", "--rule", "carnap", "--t", "3", "--lambda", "1",
         "--length", "13"),
        ("lab", "exchangeable", "--rule", "bogus", "--length", "2"),
        ("lab", "sufficientness", "--rule", "carnap", "--t", "3"),
        ("lab", "sufficientness", "--rule", "carnap", "--t", "200", "--lambda",
         "1", "--max-n", "6"),
        ("lab", "sufficientness", "--rule", "laplace", "--max-n", "1023"),
        ("lab", "sufficientness", "--rule", "hintikka", "--t",
         "1000000000000000000000000000000"),
        ("lab", "sufficientness", "--rule", "laplace", "--max-n", "-1"),
        ("lab", "df-check", "--urn", "2,2"),
        ("lab", "df-check", "--k", "2"),
        ("lab", "df-check", "--urn", "2", "--k", "1"),
        ("lab", "df-check", "--urn", "0,0", "--k", "1"),
        ("lab", "df-check", "--urn", "2,2", "--k", "5"),
        ("lab", "df-check", "--urn", "2,x", "--k", "1"),
        ("lab", "df-check", "--urn", "3000,3000", "--k", "3000"),
        ("lab", "df-check", "--urn", "3000,3000", "--k", "1"),
        ("lab", "urn", "--colors", "2,2"),
        ("lab", "urn", "--colors", "2,2", "--k", "5"),
        ("lab", "urn", "--colors", "3000,3000", "--k", "3000"),
        ("lab", "urn", "--colors", "1,1", "--k", "0"),
    ]
    return out + [argv + ("--format", "json") for argv in out[-12:]]


def _help_and_config() -> list[tuple[str, ...]]:
    out = [("--help",), ("-h",), ("lab", "--help")]
    out += [(*cmd.split(), "--help") for cmd in (
        "predict", "posterior", "compare", "lab exchangeable",
        "lab sufficientness", "lab df-check", "lab urn",
    )]
    out += [
        ("predict", "--config", "{dir}/laplace.cfg"),
        ("predict", "--config", "{dir}/laplace.cfg", "--n", "20"),
        ("predict", "--config", "{dir}/laplace.cfg", "--format", "json"),
        ("predict", "--rule", "haldane", "--config", "{dir}/laplace.cfg"),
        ("predict", "--config", "{dir}/haldane.cfg"),
        ("predict", "--config", "{dir}/haldane.cfg", "--format", "csv"),
        ("posterior", "--config", "{dir}/haldane.cfg"),
        ("predict", "--config", "{dir}/digits.cfg", "--rule", "laplace",
         "--n", "3"),
        ("compare", "--n-list", "1,2", "--config", "{dir}/digits.cfg"),
        ("predict", "--config", "{dir}/self.cfg"),
        ("predict", "--config", "{dir}/bad-line.cfg"),
        ("predict", "--config", "{dir}/bad-value.cfg", "--rule", "laplace"),
        ("predict", "--config", "{dir}/unknown-key.cfg", "--rule", "laplace",
         "--n", "1"),
        ("predict", "--config", "{dir}/missing.cfg"),
        ("lab", "exchangeable", "--config", "{dir}/lab.cfg"),
        ("lab", "exchangeable", "--config", "{dir}/lab.cfg", "--length", "4"),
        ("lab", "sufficientness", "--config", "{dir}/lab.cfg"),
        ("lab", "sufficientness", "--config", "{dir}/rule-length.cfg"),
        ("lab", "df-check", "--config", "{dir}/urn.cfg"),
        ("lab", "df-check", "--config", "{dir}/urn.cfg", "--k", "3"),
        ("lab", "urn", "--config", "{dir}/urn.cfg"),
    ]
    return out


ARGVS = list(dict.fromkeys(
    _predict() + _posterior() + _compare() + _lab() + _refusals()
    + _help_and_config()
))


def _normalized(argv: tuple[str, ...], code: int, out: str, err: str) -> tuple:
    # of an argparse exit its error line, and of a --help page the flags and
    # choice sets it names: the rest is argparse's wording, which may vary
    if err.startswith("usage:"):
        err = "".join(line.partition(" (choose from ")[0] + "\n"
                      for line in err.splitlines() if ": error: " in line)
    if code == 0 and ("--help" in argv or "-h" in argv):
        names = re.findall(r"--[a-z][a-z0-9-]*|\{[^}]*\}", out)
        out = "\n".join(sorted(set(names))) + "\n"
    return code, out, err


def replay() -> dict[str, dict]:
    """Run each argv through ``main``; the record of each, keyed by its
    JSON text."""
    results = {}
    with tempfile.TemporaryDirectory() as folder:
        for name, text in CONFIGS.items():
            Path(folder, name).write_text(text, encoding="utf-8")
        for argv in ARGVS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([arg.replace("{dir}", folder) for arg in argv])
            texts = (s.getvalue().replace(folder, "{dir}") for s in (out, err))
            code, *texts = _normalized(argv, code, *texts)
            entry = {"argv": list(argv), "exit": code}
            for stream, text in zip(("stdout", "stderr"), texts):
                entry[f"{stream}_sha256"] = hashlib.sha256(text.encode()).hexdigest()
                if len(text) <= SHORT:
                    entry[stream] = text
            results[json.dumps(argv)] = entry
    return results


def regenerate() -> int:
    entries = replay().values()
    lines = ",\n".join(json.dumps(e, ensure_ascii=False, sort_keys=True)
                       for e in entries)
    RECORD.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    return len(entries)


def check() -> list[str]:
    """One report per argv whose exit code, stdout or stderr differs from
    the record, or that has no record; empty when the contract holds."""
    recorded = {json.dumps(tuple(e["argv"])): e
                for e in json.loads(RECORD.read_text(encoding="utf-8"))}
    reports = []
    for key, now in replay().items():
        then = recorded.get(key)
        if then is None:
            reports.append(f"{key}: not recorded")
            continue
        lines = []
        if then["exit"] != now["exit"]:
            lines.append(f"exit {then['exit']} -> {now['exit']}")
        for stream in ("stdout", "stderr"):
            if then[f"{stream}_sha256"] == now[f"{stream}_sha256"]:
                continue
            if stream in then and stream in now:
                lines += difflib.unified_diff(
                    then[stream].splitlines(), now[stream].splitlines(),
                    f"recorded {stream}", f"replayed {stream}", lineterm="",
                )
            else:
                lines.append(f"{stream} differs (sha256 "
                             f"{then[stream + '_sha256'][:12]} -> "
                             f"{now[stream + '_sha256'][:12]})")
        if lines:
            reports.append("\n  ".join([key, *lines]))
    return reports


if __name__ == "__main__":
    if sys.argv[1:] not in (["--check"], ["--regenerate"]):
        sys.exit("usage: cli_corpus.py --check | --regenerate")
    if sys.argv[1] == "--regenerate":
        print(f"recorded {regenerate()} argvs in {RECORD.name}")
        sys.exit(0)
    failures = check()
    for report in failures:
        print(report)
    print(f"{len(failures)} of {len(ARGVS)} argvs differ from {RECORD.name}")
    sys.exit(1 if failures else 0)
