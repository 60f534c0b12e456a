"""The text grammars: envelope strings, observable keys, `pq:rule:`
frequencies and config files.  Every parameter a key accepts is one the run
reads, and every config key one its run reads, inside the key's domain;
anything else is refused with exit code 2 and a one-line error naming it."""

import argparse
import dataclasses
import io
import math
import os
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergorate.arithmetic import Frequency, expand_cf
from ergorate.cli import build_parser
from ergorate.cli import main as cli_main
from ergorate.envelopes import Envelope
from ergorate.errors import ErgorateError
from ergorate.harness import (_EVERY_RUN, _KEYS, ExperimentConfig,
                              resolve_observable, resolve_system)

RATE = ["rate", "--system", "rotation1d:golden", "--schedule",
        "list:100,200,300,400", "--grid", "64"]


# one cheap run of each kind, naming every key the run reads
RUNS = {
    "rate": {"system": "rotation1d:golden", "observable": "cos",
             "schedule": "list:100", "grid": "16",
             "envelope": "dk:alpha=0.5", "timings": "false"},
    "kernel": {"frequencies": "[golden]", "n_values": "[100]",
               "max_q": "300", "ratio_cap": "10.0"},
    "sharp": {"frequency": "pq:rule:spike:7,1000", "weight": "holder",
              "alpha": "0.5", "m_values": "[6]"},
    "skew": {"frequency": "golden", "d": "2", "k": "[1, 0]",
             "n_values": "[100]", "eps": "0.05", "x_batch": "1", "seed": "7"},
    "approx": {"system": "rotation1d:golden", "observable": "dist_pow:0.5",
               "n_values": "[16, 32]"},
}
EVERY_RUN = {"precision_bits": "192", "budget_s": "60", "out_dir": "out",
             "format": "both"}


def _flag(key):
    return "--" + key.replace("_", "-")


def _flags(values):
    """{flag: text} that sets each key to its config-file text: a list's
    items comma-separated, so the text list of RUNS holds one item."""
    return {_flag(k): ",".join(v[1:-1].split(", ")) if v.startswith("[") else v
            for k, v in values.items()}


TOP_FLAGS = _flags(EVERY_RUN)


def _argv(command, flags):
    """argv from {flag: value}: top-level flags first, a None value a bare
    flag, a None flag the positional, and each value after `=`, so that a
    value such as -inf is not read as an option."""
    top = [f"{f}={v}" for f, v in flags.items() if f in TOP_FLAGS]
    own = [v if f is None else f if v is None else f"{f}={v}"
           for f, v in flags.items() if f not in TOP_FLAGS]
    return top + [command] + own


def _capped_main(directory, argv, cap_s=60):
    """cli.main(argv) run in directory under a SIGALRM cap: its exit code,
    argparse's included, and its stderr."""
    def expire(signum, frame):
        raise TimeoutError(f"{argv} outlasted its {cap_s} s cap")

    cwd, handler = os.getcwd(), signal.signal(signal.SIGALRM, expire)
    os.chdir(directory)
    signal.alarm(cap_s)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            try:
                rc = cli_main(argv)
            except SystemExit as exc:
                rc = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
        os.chdir(cwd)
    return rc, err.getvalue()


def _config_argv(directory, run, key, value):
    """argv of `run` from a config file in directory: the run's cheap
    values with key set to value."""
    values = {**EVERY_RUN, **RUNS[run], key: value}
    path = directory / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return ["--config", str(path), run]


def _sharp_config(tmp_path, text):
    cfg = tmp_path / "sharp.cfg"
    cfg.write_text(text)
    return ["--config", str(cfg), "sharp"]


def _refused(capsys, argv, needle):
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert len(err.strip().splitlines()) == 1


class TestRefusedAtParse:
    # each exited 0 and dropped the value, or ended in a traceback (exit 1)
    @pytest.mark.parametrize("envelope,needle", [
        ("sdc:alpha=0.5,gamma=0.1", "gamma"),
        ("sdc:alpha=0.5,scale=7", "scale"),
        ("dk:alpha=0.5,eps=0.3", "eps"),
        ("sdc:alpha=0.5,alpha=0.3", "alpha"),
        ("sdc:alpha=nan", "alpha"),
        ("dk:alpha=0", "alpha"),
        ("dc:alpha=0.5,A=0", "A"),
        ("dc:alpha=0.5,A=inf", "A"),
        ("transd:alpha=0.5,A=3.0,d=0", "d"),
        ("skew:alpha=0.5,d=2.5", "'2.5'"),
        ("skew:alpha=0.5,d=2,eps=-1", "eps"),
        ("skew:alpha=0.5,d=2,eps=nan", "eps"),
        ("skew:alpha=0.5,d=2,eps=inf", "eps"),
        ("skew:alpha=0.5,d=2,eps=1000", "eps"),  # OverflowError in the shape
        ("transd:alpha=0.5,A=2,d=1" + "0" * 400, "d"),  # OverflowError too
    ])
    def test_envelope(self, capsys, envelope, needle):
        _refused(capsys, RATE + ["--observable", "cos", "--envelope", envelope],
                 needle)

    @pytest.mark.parametrize("key,needle", [
        ("dist_pow:0.5:junk", "dist_pow:0.5:junk"),
        ("dist_pow:-1", "alpha"),  # ZeroDivisionError in the mean
        ("coboundaryX", "coboundaryX"),
        ("weierstrass_w:0.5:9", "weierstrass_w:0.5:9"),
        ("lacunary:holder:0.5:1e-12:junk", "tolerance"),
        ("lacunary:holder:0.5:1e-12", "tolerance"),
        ("poly_plus_dist:8:0.5", "poly_plus_dist:8:0.5"),
        ("poly_plus_dist:-3:0.5:7", "degree"),  # measured dist_pow alone
        ("coboundary:nan", "omega"),  # every point came out null, exit 0
        ("coboundary:inf", "omega"),
    ])
    def test_observable(self, capsys, key, needle):
        _refused(capsys, RATE + ["--observable", key], needle)

    @pytest.mark.parametrize("freq,needle", [
        ("pq:rule:index:5", "'index' takes 0"),
        ("pq:rule:spike:7", "'spike' takes 2"),
        ("pq:rule:const", "'const' takes 1"),
        ("pq:rule:spike:7,1000,2", "'spike' takes 2"),
        ("pq:rule:spike:7,0", "a_7 = 0"),  # was printed as certified
        ("pq:rule:const:0", "a_1 = 0"),    # ZeroDivisionError
        ("pq:rule:const:-3", "a_1 = -3"),
        ("pq:rule:nosuch", "nosuch"),
    ])
    def test_rule(self, capsys, freq, needle):
        _refused(capsys, ["cf", "--freq", freq], needle)

    def test_cf_with_nothing_to_expand(self, capsys):
        _refused(capsys, ["cf", "--freq", "golden", "--max-q", "-5"], "--max-q")

    def test_sharp_alpha_without_holder_weight(self, capsys, tmp_path):
        _refused(capsys, _sharp_config(
            tmp_path, "frequency = pq:rule:exp_gap:5\nweight = analytic\n"
                      "alpha = 0.9\nm_values = [3]\n"), "alpha")

    def test_sharp_weight_outside_its_set(self, capsys, tmp_path):
        # ran the lacunary:holder:0.3 series, an alpha the config never set
        _refused(capsys, _sharp_config(
            tmp_path, "frequency = pq:rule:spike:7,1000\nweight = holder:0.3\n"
                      "m_values = [6]\n"), "config key weight")

    def test_sharp_empty_m_values(self, capsys, tmp_path):
        _refused(capsys, _sharp_config(
            tmp_path, "frequency = pq:rule:spike:7,1000\nm_values = []\n"),
            "m_values")

    @pytest.mark.parametrize("run,key,value,needle", [
        # each exited 0: it ran as n_values = [100, 1], as max_q = 300, with
        # within_cap false, at grid 64, at d = 2, from the origin only, with
        # a null scale, at m = 6, or ignored the key (no budget, no cap on q)
        ("kernel", "n_values", "[100.9, true]", "n_values"),
        ("kernel", "max_q", "300.5", "max_q"),
        ("kernel", "ratio_cap", "nan", "ratio_cap"),
        ("kernel", "max_qq", "5", "max_qq"),
        ("rate", "grid", "64.9", "grid"),
        ("rate", "budget", "0.001", "budget"),
        ("rate", "sytem", "x", "sytem"),
        ("skew", "d", "2.9", "config key d "),
        ("skew", "seed", "2.7", "seed"),
        ("skew", "x_batch", "-3", "x_batch"),
        ("skew", "eps", "nan", "eps"),
        ("skew", "eps", "1000", "eps"),  # OverflowError in weyl_bound
        ("sharp", "m_values", "[6.7]", "m_values"),
    ])
    def test_config(self, capsys, tmp_path, monkeypatch, run, key, value,
                    needle):
        monkeypatch.chdir(tmp_path)
        _refused(capsys, _config_argv(tmp_path, run, key, value), needle)
        assert not (tmp_path / "out").exists()

    def test_config_key_given_twice(self, capsys, tmp_path):
        # ran at max_q = 20000
        cfg = tmp_path / "kernel.cfg"
        cfg.write_text("frequencies = golden\nn_values = 100\nmax_q = 300\n"
                       "max_q = 20000\n")
        _refused(capsys, ["--config", str(cfg), "kernel"],
                 "line 4: config key max_q given twice")

    @pytest.mark.parametrize("bound", ["inf", "1e400"])
    def test_geometric_schedule_past_the_double_range(self, capsys, bound):
        # the steps ran to inf: OverflowError, exit code 1
        _refused(capsys, RATE[:3] + ["--schedule", f"geometric:100,{bound},2",
                                     "--observable", "cos", "--grid", "16"],
                 "inside the doubles")

    def test_sharp_empty_witness_schedule(self, capsys):
        # golden has no a_{m+1} >= m with m >= 2: the run measured nothing
        _refused(capsys, ["sharp", "--frequency", "golden", "--alpha", "0.5"],
                 "witness schedule")


class TestStillAccepted:
    @pytest.mark.parametrize("envelope", [
        "skew:alpha=0.5,d=2,eps=0.1", "transd:alpha=0.5,A=3.0,d=2",
        "dc:alpha=1,A=2", "skew:alpha=0.5,d=1,eps=1", "dk:alpha=0.5",
    ])
    def test_envelope(self, capsys, envelope):
        assert cli_main(RATE + ["--observable", "cos",
                                "--envelope", envelope]) == 0

    @pytest.mark.parametrize("key", [
        "coboundary", "coboundary:0.3", "lacunary:holder:0.5",
        "lacunary:analytic", "weierstrass_w:0.5", "dist_pow:1",
    ])
    def test_observable(self, capsys, key):
        assert cli_main(RATE + ["--observable", key]) == 0

    @pytest.mark.parametrize("freq", [
        "pq:rule:spike:7,1000", "pq:rule:exp_gap:5", "pq:rule:index",
        "pq:rule:const:2",
    ])
    def test_rule(self, capsys, freq):
        assert cli_main(["cf", "--freq", freq, "--max-q", "1000"]) == 0

    def test_cf_max_q_one(self, capsys):
        assert cli_main(["cf", "--freq", "golden", "--max-q", "1"]) == 0


# generated inputs: names from the real ones plus junk, 0-3 parameters from
# valid values, NaN, +-inf, zero, negatives, empty strings and words
VALUES = ["0.5", "1", "0.3", "2", "7", "1000", "nan", "inf", "-inf", "0",
          "-1", "", "junk"]
ENVELOPE_KINDS = ["dk", "sdc", "dc", "beta", "modulus", "transd", "skew",
                  "junk", ""]
ENVELOPE_NAMES = ["alpha", "A", "d", "eps", "gamma", "beta", "scale",
                  "modulus", "junk"]
OBSERVABLE_NAMES = ["dist_pow", "cos", "coboundary", "weierstrass_w",
                    "poly_plus_dist", "lacunary", "lacunary:holder",
                    "lacunary:analytic", "lacunary:junk", "junk"]
RULE_NAMES = ["const", "index", "square_even", "double_exp", "spike",
              "exp_gap", "junk", ""]
GOLDEN = resolve_system("rotation1d:golden")
GENERATED = settings(derandomize=True, max_examples=150, deadline=None,
                     database=None)

# a value the shape reads, moved inside its domain
_MOVED = {"alpha": lambda a: a / 2, "A": lambda A: A + 1,
          "d": lambda d: d + 1, "eps": lambda e: (e + 1) / 2}


@GENERATED
@given(st.sampled_from(ENVELOPE_KINDS),
       st.lists(st.tuples(st.sampled_from(ENVELOPE_NAMES),
                          st.sampled_from(VALUES)), max_size=3))
def test_generated_envelopes(kind, params):
    text = kind + (":" if params else "") + ",".join(
        f"{name}={val}" for name, val in params)
    try:
        env = Envelope.parse(text)
    except (ErgorateError, ValueError):
        return
    shape = env.shape(1000)
    assert 0 < shape < math.inf
    # every name given is read: moving its value moves the curve
    for name, _ in params:
        moved = dataclasses.replace(
            env, **{name: _MOVED[name](getattr(env, name))})
        assert moved.shape(1000) != shape, (text, name)


@GENERATED
@given(st.sampled_from(OBSERVABLE_NAMES),
       st.lists(st.sampled_from(VALUES), max_size=3))
def test_generated_observable_keys(name, params):
    try:
        resolve_observable(":".join([name, *params]), GOLDEN)
    except (ErgorateError, ValueError):
        pass


@GENERATED
@given(st.sampled_from(RULE_NAMES),
       st.lists(st.sampled_from(VALUES), max_size=3))
def test_generated_rule_frequencies(name, params):
    text = "pq:rule:" + name + (":" + ",".join(params) if params else "")
    try:
        cf = expand_cf(Frequency.parse(text), max_q=1000)
    except (ErgorateError, ValueError):
        return
    assert all(a >= 1 for a in cf.a)
    assert all(q0 < q1 for q0, q1 in zip(cf.q, cf.q[1:]))


# one key per run, from the keys it reads and unread names, set to a cheap
# valid value or a malformed one
UNREAD = ["gap_constant", "budget", "sytem", "junk"]
CONFIG_VALUES = ["1", "2", "0.5", "2.5", "true", "nan", "inf", "-inf", "0",
                 "-1", "", "junk", "[]", "[1]"]


@pytest.mark.parametrize("run", sorted(RUNS))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_generated_configs(tmp_path_factory, run, data):
    reads = {**EVERY_RUN, **RUNS[run]}
    key = data.draw(st.sampled_from(sorted(reads) + UNREAD))
    own = [reads[key]] if key in reads else []
    value = data.draw(st.sampled_from(own + CONFIG_VALUES))
    directory = tmp_path_factory.mktemp(run)
    rc, err = _capped_main(directory, _config_argv(directory, run, key, value))
    assert rc in (0, 2), (key, value, rc)
    assert "Traceback" not in err
    if rc == 2:
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
        assert sorted(os.listdir(directory)) == ["run.cfg"]


# the flags of the commands that are not runs, each with a cheap valid value;
# None is scenario's positional name
OTHER_COMMANDS = {
    "cf": {"--frequency": "golden", "--max-q": "100"},
    "classify": {"--frequency": "golden", "--max-q": "1000", "--k-max": "100"},
    "ostrowski": {"--frequency": "golden", "-n": "29"},
    "scenario": {None: "cf_suite", "--verbose": None},
}
# their int flags, parsed as run flags are, so refused on one error line
INT_FLAGS = {"--max-q", "--k-max", "-n"}
ARGV_VALUES = ["1", "2", "0.5", "2.5", "true", "nan", "inf", "-inf", "0",
               "-1", "", "junk", "1,a", "1,2", "golden"]
# flags of no command, and a flag and an abbreviation of some commands only
OTHER_FLAGS = ["--gap-constant", "--sytem", "--junk", "--alpha", "--freq"]


@pytest.mark.parametrize("command", sorted(RUNS) + sorted(OTHER_COMMANDS))
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(data=st.data())
def test_generated_argv(tmp_path_factory, command, data):
    # one flag of the command, a top-level flag or an unread one, set to a
    # cheap valid value or a malformed one, on top of a cheap valid argv
    flags = (_flags({**EVERY_RUN, **RUNS[command]}) if command in RUNS
             else dict(OTHER_COMMANDS[command]))
    flag = data.draw(st.sampled_from(
        sorted(flags, key=str) + sorted(set(TOP_FLAGS) - set(flags))
        + OTHER_FLAGS))
    own = [v for v in (flags.get(flag), TOP_FLAGS.get(flag)) if v is not None]
    flags[flag] = data.draw(st.sampled_from(own + ARGV_VALUES))
    directory = tmp_path_factory.mktemp(command)
    argv = _argv(command, flags)
    rc, err = _capped_main(directory, argv)
    assert rc in (0, 2), (argv, rc)
    assert "Traceback" not in err
    if rc == 2:
        assert err.count("error:") == 1, err
        if command in OTHER_COMMANDS and flag in INT_FLAGS:
            assert len(err.strip().splitlines()) == 1, err
            assert err.startswith(f"error: {flag} must be int"), err
        assert os.listdir(directory) == [], argv


@pytest.mark.parametrize("run,change", [(run, {}) for run in sorted(RUNS)]
                         + [("sharp", {"alpha": "1"})],
                         ids=sorted(RUNS) + ["sharp-alpha-1"])
def test_argv_and_config_file_write_the_same_files(tmp_path, run, change):
    # --alpha 1 was the float 1.0 and the config's alpha = 1 the int 1, so
    # the two runs wrote the same rows under two hashes
    values = {**EVERY_RUN, **RUNS[run], **change}
    written = []
    for name, argv in [("argv", _argv(run, _flags(values))),
                       ("config", ["--config", "run.cfg", run])]:
        (tmp_path / name).mkdir()
        if name == "config":
            (tmp_path / name / "run.cfg").write_text(
                "".join(f"{k} = {v}\n" for k, v in values.items()))
        assert _capped_main(tmp_path / name, argv)[0] == 0, argv
        out = tmp_path / name / "out"
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]
    assert len(written[0]) == 3  # csv, json and the manifest


def test_every_key_is_a_flag_of_exactly_the_runs_that_read_it():
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(RUNS) == set(_EVERY_RUN.split())
    for key, (_, readers) in _KEYS.items():
        flag = _flag(key)
        has = {run for run in RUNS if flag in parser._option_string_actions
               or flag in commands[run]._option_string_actions}
        assert has == set(readers.split()) & set(RUNS), key


@pytest.mark.parametrize("argv,flag", [
    # each exited 0 and dropped the flag
    (["--config", "nosuch.cfg", "cf", "--freq", "golden"], "--config"),
    (["--out-dir", "out", "cf", "--freq", "golden"], "--out-dir"),
    (["--out-dir", "out", "classify", "--freq", "golden", "--max-q", "100"],
     "--out-dir"),
    (["--out-dir", "out", "ostrowski", "--freq", "golden", "-n", "5"],
     "--out-dir"),
    (["--format", "json", "scenario", "cf_suite"], "--format"),
    (["--precision-bits", "256", "scenario", "cf_suite"], "--precision-bits"),
    (["--config", "nosuch.cfg", "scenario", "cf_suite"], "--config"),
    (["--budget-s", "10", "cf", "--freq", "golden"], "--budget-s"),
])
def test_a_top_level_flag_the_command_does_not_read(capsys, tmp_path,
                                                    monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    _refused(capsys, argv, flag)
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == []


TEXT = st.text(alphabet='ab1.,"#[] =-\t', max_size=8)


@GENERATED
@given(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                       st.one_of(TEXT, st.lists(TEXT, max_size=4))))
def test_generated_text_round_trips(values):
    # a list item with a comma was cut in two, and a # in a text ended it
    cfg = ExperimentConfig(values)
    assert ExperimentConfig.parse(cfg.serialize()).values == values


def test_a_kernel_config_lists_frequencies_with_commas(capsys, tmp_path):
    # each item was cut at its commas, so both exited 2
    cfg = tmp_path / "kernel.cfg"
    cfg.write_text('frequencies = [golden, "pq:rule:spike:7,1000", '
                   '"surd:(-1,1,5,2)"]\nn_values = [100]\nmax_q = 300\n')
    assert cli_main(["--config", str(cfg), "kernel"]) == 0
    assert capsys.readouterr().err == ""
