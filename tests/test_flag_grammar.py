"""The command line's flag grammar, fuzzed: argvs drawn over every command
path in ``cli.COMMANDS``, with each flag's value from a fixed pool, run
through ``main`` in-process.

Every draw must exit 0, 2, 3 or 4 without raising, a proper prefix of a flag
must exit 2, and a ``--config`` file holding the same keys must give the same
exit code and stdout as the flags on the command line. The pools hold small,
boundary, past-the-cap, fractional, signed and malformed values, chosen so
that no draw needs more than about a second: a cap's first refused value is
in them, but not the largest admitted one where admitting it is slow (a
rising factorial of 10**4 terms, a sufficientness search over 2**20 types).
A draw over its wall budget fails and shows its argv.
"""

import contextlib
import io
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from succession.cli import COMMANDS, COMMON_FLAGS, main

# seconds one main call may take; the slowest draw under this seed takes
# well under a tenth of it
BUDGET = 3.0
HUGE = "1" + "0" * 30
# values that parse, by flag: small, boundary, past-the-cap and fractional;
# --t, --max-n and --length stop short of the sizes that take seconds and
# jump straight past their caps. A flag with choices draws from them.
COUNT = ("0", "1", "2", "7", "100", "10001", "1999999999999999999", HUGE)
POSITIVE = ("1", "2", "1/2", "5/2", "0.25", "1/3", HUGE, f"1/{HUGE}")
MASS = ("0", "1", "1/2", "1/4", "3/4", "1/3", "0.5")
URNS = ("2,3", "1,1", "5,5", "0,4", "1,2,3", "10,10", f"{HUGE},1", "1", "0,0")
POOLS = {
    "--n": COUNT,
    "--m": COUNT,
    "--alpha": POSITIVE,
    "--beta": POSITIVE,
    "--prior-odds": POSITIVE,
    "--lambda": POSITIVE,
    "--mass1": MASS,
    "--mass0": MASS,
    "--mass-cont": MASS,
    "--block": ("1", "2", "1000", "100000000000", HUGE),
    "--n-list": ("0", "0,1,10", "5,5", f"1999999999999999999,{HUGE}"),
    "--rules": ("laplace", "haldane,jeffreys-split", "laplace,laplace"),
    "--params": ("1,1", "1/2,1/3,5/7", "1,1,1,1", "2,1/2", "1", f"{HUGE},1"),
    "--t": ("1", "2", "3", "5", "1048577", HUGE),
    "--max-n": ("0", "1", "2", "5", "1000000", HUGE),
    "--length": ("1", "2", "3", "12", "20", "21", HUGE),
    "--urn": (*URNS, "7,7,7"),
    "--colors": URNS,
    "--k": ("1", "2", "3", "5", "20", "21", HUGE),
    "--digits": ("1", "12", "10000", "10001"),
}
# values any flag may get instead: signed, out of range, malformed
BAD = ("-1", "+2", "0", "-1/2", "1/0", "2.5", "1e3", "1e1000000", "x", "",
       "1_0", "\u0663", "1,x", ",", "Laplace", "--")


def _options(path):
    # flag -> its argparse options, for every flag of the path but --config
    return {flag: options for flag, options in (*COMMANDS[path][1], *COMMON_FLAGS)
            if flag != "--config"}


def _prefixes(path):
    # proper prefixes of the path's flags that are no flag of it themselves
    flags = {*_options(path), "--config", "--help"}
    return sorted({flag[:end] for flag in flags for end in range(3, len(flag))}
                  - flags)


# the flags a command path, and a rule, need before the engine runs; a
# draw takes each of them five times in six, any other flag once in six
NEEDS = {
    "predict": ("--rule", "--n"),
    "posterior": ("--n", "--m"),
    "compare": ("--n-list",),
    "lab exchangeable": ("--rule", "--length"),
    "lab sufficientness": ("--rule",),
    "lab df-check": ("--urn", "--k"),
    "lab urn": ("--colors", "--k"),
    "general": ("--mass1", "--mass0", "--mass-cont"),
    "dirichlet": ("--params",),
    "carnap": ("--t", "--lambda"),
    "hintikka": ("--t",),
}


@st.composite
def draws(draw):
    """(command path, [(flag, value), ...]): the path's flags in a drawn
    order, each taken or not (see NEEDS), up to two of them again, sometimes
    one bad value and sometimes a prefix of a flag among them."""
    path = draw(st.sampled_from(list(COMMANDS)))
    options = _options(path)

    def value(flag):
        return draw(st.sampled_from(options[flag].get("choices") or POOLS[flag]))

    chosen = {"--rule": value("--rule")} if "--rule" in options else {}
    needs = {*NEEDS[path], *NEEDS.get(chosen.get("--rule"), ())}
    pairs = [
        (flag, chosen.get(flag) or value(flag))
        for flag in draw(st.permutations(list(options)))
        if draw(st.integers(0, 5)) < (5 if flag in needs else 1)
    ]
    if pairs:
        again = draw(st.lists(st.sampled_from([f for f, _ in pairs]), max_size=2))
        pairs += [(flag, value(flag)) for flag in again]
    if pairs and draw(st.integers(0, 3)) == 0:
        spot = draw(st.integers(0, len(pairs) - 1))
        pairs[spot] = (pairs[spot][0], draw(st.sampled_from(BAD)))
    if draw(st.integers(0, 9)) == 0:
        prefix = draw(st.sampled_from(_prefixes(path)))
        pairs.insert(draw(st.integers(0, len(pairs))), (prefix, "1"))
    return path, pairs


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET, f"{elapsed:.2f} s over the budget: {argv}"
    return code, out.getvalue()


def test_every_flag_has_a_pool():
    # a new flag needs values to be drawn with
    flags = {f for path in COMMANDS for f, o in _options(path).items()
             if not o.get("choices")}
    assert flags == set(POOLS)


def test_every_path_has_prefixes_to_refuse():
    assert all(_prefixes(path) for path in COMMANDS)


@seed(20231019)
@settings(max_examples=2000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(draw=draws())
def test_flag_grammar(draw):
    path, pairs = draw
    argv = path.split() + [token for pair in pairs for token in pair]
    code, out = _run(argv)
    assert code in (0, 2, 3, 4), argv
    if not {flag for flag, _ in pairs} <= set(_options(path)):
        assert code == 2, argv  # a prefix is no flag
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "flags.cfg"
        config.write_text(
            "".join(f"{flag[2:]}={value}\n" for flag, value in pairs),
            encoding="utf-8",
        )
        assert _run([*path.split(), "--config", str(config)]) == (code, out), argv
