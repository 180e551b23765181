import contextlib
import hashlib
import io as io_module
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cakecut
from cakecut.chains import (
    ChainParameters, discussion_example, prop1_chain, thm1_chain, thm2_chain)
from cakecut.mechanisms import MECHANISMS, SHARES_MIDDLE, Mechanism
from cakecut.properties import SearchConfig, best_response_gain, ep_cutpoint_best_response
from cakecut.sampling import random_profile
from cakecut.cli import main, parse_scenario, run_scenario, scenario_to_json
from cakecut import cake, io
from cakecut.io import (
    MAX_AGENTS, MAX_BREAKPOINTS, FormatError, as_rational, canonical_dumps, load_json)

UNIFORM_PAIR = {"agents": [
    {"breakpoints": [], "densities": ["1"]},
    {"breakpoints": [], "densities": ["1"]},
]}

EXCHANGE_PAIR = {"agents": [
    {"breakpoints": ["1/2"], "densities": ["0", "2"]},
    {"breakpoints": ["0.5", "0.8"], "densities": ["1", "0", "5/2"]},
]}


@pytest.fixture
def uniform_profile(tmp_path):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(UNIFORM_PAIR))
    return str(path)


@pytest.fixture
def exchange_profile(tmp_path):
    path = tmp_path / "exchange.json"
    path.write_text(json.dumps(EXCHANGE_PAIR))
    return str(path)


def load_text(text):
    """load_json of a file that holds `text`."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return load_json(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAllocate:
    def test_even_paz_uniform(self, capsys, uniform_profile):
        code, out, _ = run_cli(capsys, "allocate", "--mechanism", "even-paz",
                               "--profile", uniform_profile)
        assert code == 0
        report = json.loads(out)
        alloc = report["output"]["allocation"]
        assert alloc["pieces"] == [[["0", "1/2"]], [["1/2", "1"]]]
        assert alloc["values"] == ["1/2", "1/2"]

    def test_decimal_profile_exact(self, capsys, exchange_profile):
        code, out, _ = run_cli(capsys, "allocate", "--mechanism", "modified-ep",
                               "--profile", exchange_profile)
        assert code == 0
        alloc = json.loads(out)["output"]["allocation"]
        assert alloc["pieces"][1] == [["0", "1/2"]]

    def test_unknown_mechanism_is_input_error(self, capsys, uniform_profile):
        code, _, err = run_cli(capsys, "allocate", "--mechanism", "nope",
                               "--profile", uniform_profile)
        assert code == 1

    def test_malformed_rational_names_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"agents": [
            {"breakpoints": ["1/0"], "densities": ["1", "1"]},
            {"breakpoints": [], "densities": ["1"]},
        ]}))
        code, _, err = run_cli(capsys, "allocate", "--mechanism", "even-paz",
                               "--profile", str(path))
        assert code == 1
        assert "breakpoints[0]" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "allocate", "--mechanism", "even-paz",
                               "--profile", "/does/not/exist.json")
        assert code == 1
        assert "not found" in err


class TestCheckAndFormats:
    def test_check_json(self, capsys, uniform_profile):
        code, out, _ = run_cli(capsys, "check", "--mechanism", "even-paz",
                               "--profile", uniform_profile)
        assert code == 0
        report = json.loads(out)["output"]["report"]
        assert report == {"proportionality_deficit": "0", "envy": "0",
                          "wasted_measure": "0", "contiguous": True}

    def test_check_text_lists_fields(self, capsys, uniform_profile):
        code, out, _ = run_cli(capsys, "check", "--mechanism", "even-paz",
                               "--profile", uniform_profile, "--format", "text")
        assert code == 0
        for field in ("proportionality_deficit", "envy", "wasted_measure",
                      "elapsed_ms"):
            assert field in out

    def test_byte_identical_json(self, capsys, exchange_profile):
        _, first, _ = run_cli(capsys, "gain", "--mechanism", "even-paz",
                              "--profile", exchange_profile, "--agent", "1",
                              "--seed", "7")
        _, second, _ = run_cli(capsys, "gain", "--mechanism", "even-paz",
                               "--profile", exchange_profile, "--agent", "1",
                               "--seed", "7")
        assert first == second


class TestGainAndLearn:
    def test_gain_engines(self, capsys, exchange_profile):
        for engine in ("grid", "ep-exact"):
            code, out, _ = run_cli(capsys, "gain", "--mechanism", "even-paz",
                                   "--profile", exchange_profile,
                                   "--agent", "1", "--engine", engine)
            assert code == 0
            cert = json.loads(out)["output"]["certificate"]
            assert cert["kind"] == "gain"

    def test_learn_reports_queries(self, capsys, exchange_profile):
        code, out, _ = run_cli(capsys, "learn", "--profile", exchange_profile,
                               "--agent", "1", "--k", "2", "--eps", "1/5")
        assert code == 0
        output = json.loads(out)["output"]
        assert output["queries_used"] == 20
        assert output["k"] == 2

    @pytest.mark.parametrize("eps, code", [("1/5", 0), ("2/11", 1)])
    def test_query_budget_cap(self, capsys, monkeypatch, exchange_profile, eps, code):
        # k = 1: a budget of floor(2/eps) = 10 queries runs, 11 is refused
        monkeypatch.setattr(cakecut.cli, "MAX_QUERY_BUDGET", 10)
        got, out, err = run_cli(capsys, "learn", "--profile", exchange_profile,
                                "--agent", "0", "--k", "1", "--eps", eps)
        assert got == code
        if code:
            assert out == "" and err == ("cakecut: error: arguments 'k' and 'eps': query "
                                         "budget floor(2k/eps) = 11 exceeds 10\n")
        else:
            assert json.loads(out)["output"]["queries_used"] == 10


class TestSeedInInputs:
    THREE = {"agents": [
        {"breakpoints": ["1/3"], "densities": ["2", "1/2"]},
        {"breakpoints": [], "densities": ["1"]},
        {"breakpoints": ["1/2"], "densities": ["1/2", "3/2"]},
    ]}
    ARGV = ("gain", "--mechanism", "even-paz", "--agent", "1", "--max-candidates", "8",
            "--profile", "three.json")
    # sha256 of the seed-0 output, which leaves the default seed out of `inputs`
    SEED_0 = "61c681d92830f386e6fea6decffa6fd284429b7132e6c9df8509b1607b67c21a"

    def test_flag_run_echoes_a_non_default_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "three.json").write_text(json.dumps(self.THREE))
        runs = {seed: run_cli(capsys, *self.ARGV, "--seed", seed) for seed in ("0", "7")}
        assert runs["0"] == run_cli(capsys, *self.ARGV)
        assert hashlib.sha256(runs["0"][1].encode()).hexdigest() == self.SEED_0
        seed0, seed7 = (json.loads(runs[seed][1]) for seed in ("0", "7"))
        assert seed0["output"] != seed7["output"]
        assert seed7["inputs"] == dict(seed0["inputs"], seed=7)


class TestChainAndVerify:
    def test_discussion_chain_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--name", "discussion")
        assert code == 2
        witness = json.loads(out)["output"]
        assert witness["certificate"]["gain"] == "1/2"
        assert witness["certificate"]["truthful_value"] == "1/2"
        assert witness["certificate"]["deviated_value"] == "1"

    def test_thm1_chain_and_verify_roundtrip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "chain", "--name", "thm1",
                               "--mechanism", "equal-split", "--n", "3")
        assert code == 2
        witness = json.loads(out)["output"]
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(witness))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out)["output"]["verified"] is True

    def test_chain_verify_flag(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "chain", "--name", "prop1",
                               "--mechanism", "even-paz", "--eps1", "1/5")
        witness = json.loads(out)["output"]
        path = tmp_path / "w.json"
        path.write_text(json.dumps(witness))
        code, out, err = run_cli(capsys, "chain", "--verify", str(path))
        # `verify` is the one re-verification route; the flag is unknown
        assert (code, out) == (1, "")
        assert err.startswith("cakecut: error: ") and err.count("\n") == 1
        assert "--verify" in err

    def test_tampered_witness_rejected(self, capsys, tmp_path):
        run_cli(capsys, "chain", "--name", "thm2", "--mechanism", "even-paz",
                "--n", "3")
        # rerun to capture cleanly
        code, out, _ = run_cli(capsys, "chain", "--name", "thm2",
                               "--mechanism", "even-paz", "--n", "3")
        witness = json.loads(out)["output"]
        witness["certificate"]["gain"] = "9/10"
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(witness))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert json.loads(out)["output"]["verified"] is False

    @pytest.mark.parametrize("witness, runs", [
        (discussion_example()[1], 2),
        (thm1_chain(MECHANISMS["even-paz"], ChainParameters.of(3)), 1),
    ], ids=["gain", "report"])
    def test_verify_runs_each_profile_once(self, capsys, tmp_path, monkeypatch,
                                           witness, runs):
        name = witness.mechanism
        profiles = []

        def counted(profile):
            profiles.append(profile)
            return mechanism.run(profile)

        mechanism = MECHANISMS[name]
        monkeypatch.setitem(MECHANISMS, name, Mechanism(name, counted))
        path = tmp_path / "w.json"
        path.write_text(canonical_dumps(io.witness_to_json(witness)))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["output"]["verified"] is True
        assert len(profiles) == runs

    @pytest.mark.parametrize("argv", [
        ("--name", "thm1", "--mechanism", "even-paz", "--n", "3"),
        ("--name", "prop1", "--mechanism", "modified-ep"),
        ("--name", "thm2", "--mechanism", "equal-split", "--n", "3"),
        ("--name", "discussion"),
    ], ids=["thm1", "prop1", "thm2", "discussion"])
    @pytest.mark.parametrize("tamper", [False, True], ids=["as-emitted", "tampered"])
    def test_cli_agrees_with_api(self, capsys, tmp_path, argv, tamper):
        _, out, _ = run_cli(capsys, "chain", *argv)
        witness = json.loads(out)["output"]
        if tamper:
            stored = witness["certificate"].get("report", witness["certificate"])
            key = "envy" if "envy" in stored else "gain"
            stored[key] = "1/7"
        path = tmp_path / "w.json"
        path.write_text(json.dumps(witness))
        code, out, _ = run_cli(capsys, "verify", str(path))
        verified = json.loads(out)["output"]["verified"]
        assert verified is io.witness_from_json(load_json(str(path))).verify()
        assert verified is (not tamper) and code == (1 if tamper else 0)

    def test_infeasible_parameters_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "chain", "--name", "thm1",
                               "--mechanism", "equal-split", "--n", "2",
                               "--eps1", "1/6")
        assert code == 1

    def test_delta_override(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--name", "thm1",
                               "--mechanism", "equal-split", "--n", "2",
                               "--delta", "1/4")
        assert code == 2
        assert json.loads(out)["output"]["parameters"]["delta"] == "1/4"


class TestReadmeRoundTrip:
    def test_chain_then_verify_as_in_readme(self, tmp_path):
        # cakecut chain --name thm1 --mechanism equal-split --n 3 > witness.json
        # cakecut verify witness.json
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(cakecut.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        cli = [sys.executable, "-m", "cakecut.cli"]
        with open(tmp_path / "witness.json", "wb") as out:
            chain = subprocess.run(
                cli + ["chain", "--name", "thm1", "--mechanism", "equal-split", "--n", "3"],
                stdout=out, cwd=tmp_path, env=env)
        assert chain.returncode == 2
        verify = subprocess.run(cli + ["verify", "witness.json"], capture_output=True,
                                cwd=tmp_path, env=env)
        assert verify.returncode == 0, verify.stderr
        assert json.loads(verify.stdout)["output"]["verified"] is True

    def test_verify_accepts_chain_envelope(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "chain", "--name", "discussion")
        path = tmp_path / "w.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out)["output"]["verified"] is True

    def test_readme_command_line_block(self, tmp_path):
        """Every line of the README's "Command line" sh block runs, on the
        README's sample profile and scenario, with the documented exit code."""
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            section = fh.read().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```(\w+)\n(.*?)```", section, re.S)
        profile, scenario = (text for lang, text in blocks if lang == "json")
        (commands,) = (text for lang, text in blocks if lang == "sh")
        (tmp_path / "profile.json").write_text(profile)
        (tmp_path / "scenario.json").write_text(scenario)
        chain_scenario = json.loads(scenario)["command"] == "chain"
        lines = commands.replace("\\\n", " ").splitlines()
        assert len(lines) == 7
        for line in lines:
            command, _, redirect = line.partition(" > ")
            argv = shlex.split(command)
            assert argv[0] == "cakecut", line
            with open(tmp_path / (redirect.strip() or ".stdout"), "wb") as out:
                child = subprocess.run([sys.executable, "-m", "cakecut.cli", *argv[1:]],
                                       stdout=out, stderr=subprocess.PIPE, cwd=tmp_path,
                                       env=_child_env())
            ends_in_chain = argv[1] == "chain" or (argv[1] == "run" and chain_scenario)
            assert child.returncode == (2 if ends_in_chain else 0), (line, child.stderr)


class TestFlagScenarioParity:
    """A command given by flags and the same command in a scenario file print
    the same output."""

    @pytest.mark.parametrize("argv, arguments", [
        (["allocate", "--mechanism", "even-paz"], {"mechanism": "even-paz"}),
        (["check", "--mechanism", "modified-ep"], {"mechanism": "modified-ep"}),
        (["gain", "--mechanism", "even-paz", "--agent", "1", "--rounds", "0",
          "--max-candidates", "8"],
         {"mechanism": "even-paz", "agent": 1, "rounds": 0, "max_candidates": 8}),
        (["learn", "--agent", "1", "--k", "2", "--eps", "1/5"],
         {"agent": 1, "k": 2, "eps": "1/5"}),
        (["chain", "--name", "thm1", "--mechanism", "equal-split", "--n", "3",
          "--delta", "1/8"],
         {"name": "thm1", "mechanism": "equal-split", "n": 3, "deltas": {"delta": "1/8"}}),
        (["verify", "{witness}"], {"witness": "{witness}"}),
    ], ids=["allocate", "check", "gain", "learn", "chain-thm1", "verify"])
    def test_same_output(self, capsys, tmp_path, exchange_profile, argv, arguments):
        witness = tmp_path / "w.json"
        witness.write_bytes(_discussion_witness())
        command = argv[0]
        argv = [a.format(witness=witness) for a in argv] + ["--seed", "7"]
        scenario = {"version": 1, "command": command, "seed": 7, "arguments": {
            k: v.format(witness=witness) if isinstance(v, str) else v
            for k, v in arguments.items()}}
        if command not in ("chain", "verify"):
            argv += ["--profile", exchange_profile]
            scenario["profile"] = {"file": exchange_profile}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_cli(capsys, *argv)
        assert err == ""
        scenario_code, scenario_out, _ = run_cli(capsys, "run", str(path))
        assert scenario_code == code
        assert (canonical_dumps(json.loads(scenario_out)["output"])
                == canonical_dumps(json.loads(out)["output"]))


class TestChainErrors:
    def test_infeasible_flags_one_line(self, capsys):
        code, out, err = run_cli(capsys, "chain", "--name", "thm1",
                                 "--mechanism", "equal-split", "--n", "2",
                                 "--eps1", "1/6")
        assert (code, out) == (1, "")
        assert err == "cakecut: error: need 3*eps1 + eps2 < 1/n\n"

    def test_infeasible_scenario_one_line(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 1, "command": "chain", "arguments": {
            "name": "prop1", "mechanism": "even-paz", "n": 3}}))
        code, out, err = run_cli(capsys, "run", str(path))
        assert (code, out) == (1, "")
        assert err == "cakecut: error: this construction is specific to n = 2\n"

    def test_chain_error_one_line(self, capsys, monkeypatch):
        from cakecut import chains

        def exhausted(mechanism, params):
            raise chains.ChainError("thm1 chain exhausted without a violation")

        monkeypatch.setattr(chains, "thm1_chain", exhausted)
        code, out, err = run_cli(capsys, "chain", "--name", "thm1",
                                 "--mechanism", "equal-split", "--n", "3")
        assert (code, out) == (1, "")
        assert err == ("cakecut: error: chain found no violation (unexpected): "
                       "thm1 chain exhausted without a violation\n")

    @pytest.mark.parametrize("name, mechanism, n, deltas, reads", [
        ("thm1", "equal-split", 2, {"bogus": "1/2"}, ["delta"]),
        ("thm2", "even-paz", 3, {"delta1": "1/9"}, ["delta"]),
        ("prop1", "even-paz", 2, {"delta": "1/5"},
         ["delta1", "delta2", "delta3", "delta4", "delta5"]),
    ], ids=["thm1", "thm2", "prop1"])
    def test_delta_the_chain_does_not_read(self, capsys, tmp_path, name, mechanism, n,
                                           deltas, reads):
        argv = ["chain", "--name", name, "--mechanism", mechanism, "--n", str(n)]
        for key, value in deltas.items():
            argv += ["--delta", f"{key}={value}"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"cakecut: error: {name} reads only the deltas {reads}; "
                       f"got {sorted(deltas)}\n")
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 1, "command": "chain", "arguments": {
            "name": name, "mechanism": mechanism, "n": n, "deltas": deltas}}))
        assert run_cli(capsys, "run", str(path)) == (code, out, err)

    def test_unknown_chain_name(self, capsys):
        code, out, err = run_cli(capsys, "chain", "--name", "bogus")
        assert (code, out) == (1, "")
        assert err == ("cakecut: error: unknown chain 'bogus'; "
                       "known: ('thm1', 'prop1', 'thm2', 'discussion')\n")


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cakecut.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


_LOADED_AFTER_MAIN = """
import contextlib, io, json, sys
import cakecut.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cakecut.cli.main(sys.argv[1:])
heavy = {"dataclasses", "inspect", "typing"} & sys.modules.keys()
assert not heavy, sorted(heavy)
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("cakecut"))]))
"""


class TestImportSets:
    """Each command loads only the cakecut modules it runs, and none of
    ``dataclasses``, ``inspect`` or ``typing``: the child starts with
    ``python -S``, so no site-packages ``.pth`` file imports them first."""

    BASE = ["cakecut", "cakecut.cake", "cakecut.cli", "cakecut.io", "cakecut.mechanisms"]

    @pytest.mark.parametrize("argv, code, extra", [
        (["allocate", "--mechanism", "even-paz", "--profile", "{profile}"], 0, []),
        (["check", "--mechanism", "modified-ep", "--profile", "{profile}"], 0,
         ["cakecut.properties"]),
        (["gain", "--mechanism", "even-paz", "--agent", "0", "--profile", "{profile}"],
         0, ["cakecut.properties"]),
        (["learn", "--agent", "1", "--k", "2", "--eps", "1/5", "--profile", "{profile}"],
         0, ["cakecut.queries"]),
        (["chain", "--name", "discussion"], 2, ["cakecut.chains", "cakecut.properties"]),
        (["verify", "{witness}"], 0, ["cakecut.chains", "cakecut.properties"]),
        (["verify", "{report}"], 0, ["cakecut.properties"]),
        (["run", "{scenario}"], 0, ["cakecut.properties"]),
    ], ids=["allocate", "check", "gain", "learn", "chain", "verify", "verify-report",
            "run"])
    def test_modules_loaded(self, tmp_path, exchange_profile, argv, code, extra):
        witness, scenario = tmp_path / "w.json", tmp_path / "s.json"
        witness.write_bytes(_discussion_witness())
        scenario.write_text(json.dumps({"version": 1, "command": "check", "arguments": {
            "mechanism": "modified-ep"}, "profile": {"file": exchange_profile}}))
        profile = io.profile_from_json(EXCHANGE_PAIR)
        report = tmp_path / "r.json"
        report.write_text(canonical_dumps(io.property_certificate_to_json(
            cakecut.PropertyCertificate("modified-ep", profile, cakecut.check_properties(
                MECHANISMS["modified-ep"], profile)))))
        argv = [a.format(profile=exchange_profile, witness=witness, scenario=scenario,
                         report=report) for a in argv]
        child = subprocess.run([sys.executable, "-S", "-c", _LOADED_AFTER_MAIN, *argv],
                               capture_output=True, text=True, cwd=tmp_path,
                               env=_child_env())
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == [code, sorted(self.BASE + extra)]


class TestScenarioArgumentTypes:
    @pytest.mark.parametrize("command, arguments, field", [
        ("gain", {"mechanism": "even-paz", "agent": "x"}, "agent"),
        ("gain", {"mechanism": "even-paz", "agent": 0, "max_candidates": "7"},
         "max_candidates"),
        ("learn", {"agent": 0, "k": 2, "eps": "0"}, "eps"),
        ("gain", {"mechanism": "equal-split", "agent": 0, "engine": "ep-exact"},
         "ep-exact"),
        ("gain", {"mechanism": "even-paz", "agent": 0, "max_candidates": -3},
         "max_candidates"),
        ("learn", {"agent": 1, "k": 1, "eps": "1/5"}, "k"),
        ("gain", {"mechanism": "even-paz", "agent": 0, "mass_denominator": 0},
         "mass_denominator"),
        ("gain", {"mechanism": "even-paz", "agent": 0, "mass_denominator": -2},
         "mass_denominator"),
        ("gain", {"mechanism": "even-paz", "agent": 0, "max_breakpoints": -1},
         "max_breakpoints"),
        ("gain", {"mechanism": "even-paz", "agent": 0, "rounds": -1}, "rounds"),
        ("gain", {"mechanism": "even-paz", "agent": 1, "engin": "ep-exact",
                  "max_candidate": 7}, "max_candidate"),
        ("chain", {"name": "thm1", "mechanism": "equal-split", "verify": "w.json"},
         "verify"),
        ("learn", {"agent": 0, "k": 2, "eps": "1/100000000"}, "eps"),
    ])
    def test_bad_argument_is_one_line_error(self, capsys, tmp_path, command,
                                            arguments, field):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 1, "command": command,
                                    "arguments": arguments, "profile": EXCHANGE_PAIR}))
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("cakecut: error: ") and err.count("\n") == 1
        assert repr(field) in err

    @pytest.mark.parametrize("argv", [
        ("gain", "--mechanism", "ep-exchange", "--engine", "ep-exact", "--agent", "0"),
        ("gain", "--mechanism", "even-paz", "--agent", "0", "--max-candidates", "-3"),
        ("learn", "--agent", "1", "--k", "1", "--eps", "1/5"),
        ("gain", "--mechanism", "even-paz", "--agent", "0", "--mass-denominator", "0"),
        ("gain", "--mechanism", "even-paz", "--agent", "0", "--mass-denominator", "-2"),
        ("gain", "--mechanism", "even-paz", "--agent", "0", "--max-breakpoints", "-1"),
        ("gain", "--mechanism", "even-paz", "--agent", "0", "--rounds", "-1"),
        ("gain", "--mechanism", "even-paz", "--agent", "0", "--max-candidates", "0"),
    ], ids=["ep-exact-outside-family", "negative-max-candidates", "k-below-breakpoints",
            "zero-mass-denominator", "negative-mass-denominator",
            "negative-max-breakpoints", "negative-rounds", "zero-max-candidates"])
    def test_bad_flag_is_one_line_error(self, exchange_profile, argv):
        child = subprocess.run(
            [sys.executable, "-m", "cakecut.cli", *argv, "--profile", exchange_profile],
            capture_output=True, text=True, env=_child_env())
        assert child.returncode == 1
        assert child.stdout == ""
        assert "Traceback" not in child.stderr
        assert child.stderr.startswith("cakecut: error: ") and child.stderr.count("\n") == 1


def _discussion_witness(edit=lambda witness: None) -> bytes:
    """The `chain --name discussion` witness as JSON, after `edit(witness)`."""
    from cakecut.chains import discussion_example

    witness = io.witness_to_json(discussion_example()[1])
    edit(witness)
    return json.dumps(witness).encode()


def _huge_denominator_profile() -> bytes:
    """Valid input whose modified-ep allocation has a denominator beyond
    CPython's 4,300-digit int-to-string limit, though every input number is
    under it: agent 0 puts half its mass on [0, 1/(10**3999 + 7)]."""
    b = Fraction(1, 10 ** 3999 + 7)
    return json.dumps({"agents": [
        {"breakpoints": [str(b)], "densities": [str(1 / (2 * b)), str(1 / (2 - 2 * b))]},
        {"breakpoints": [], "densities": ["1"]},
        {"breakpoints": ["1/3"], "densities": ["3/2", "3/4"]}]}).encode()


def _allocate_scenario(**fields):
    scenario = {"version": 1, "command": "allocate",
                "arguments": {"mechanism": "even-paz"}, "profile": UNIFORM_PAIR}
    return json.dumps({**scenario, **fields}).encode()


class TestUnreadableInput:
    @pytest.mark.parametrize("content, argv, names", [
        (b"{", ("check", "--mechanism", "even-paz", "--profile", "{path}"), "not valid JSON"),
        (None, ("check", "--mechanism", "even-paz", "--profile", "{dir}"), "cannot read"),
        (b"{", ("verify", "{path}"), "not valid JSON"),
        (b"\xff\xfe{}", ("allocate", "--mechanism", "even-paz", "--profile", "{path}"),
         "not valid JSON"),
        (b"[" * 100_000, ("run", "{path}"), "not valid JSON"),
        (_discussion_witness(lambda w: w.update(parameters=[])),
         ("verify", "{path}"), "witness.parameters"),
        (_discussion_witness(lambda w: w.update(mechanism=["x"])),
         ("verify", "{path}"), "witness.mechanism"),
        (_discussion_witness(lambda w: w["certificate"].update(agent=9)),
         ("verify", "{path}"), "witness.certificate.agent"),
        (_discussion_witness(lambda w: w["certificate"].update(agent=True)),
         ("verify", "{path}"), "witness.certificate.agent"),
        (json.dumps({"kind": "report", "mechanism": "even-paz", "profile": UNIFORM_PAIR,
                     "report": {"proportionality_deficit": "0", "envy": "0",
                                "wasted_measure": "0", "contiguous": "no"}}).encode(),
         ("verify", "{path}"), "certificate.report.contiguous"),
        (json.dumps({"agents": [{"breakpoints": ["3/2"], "densities": ["1", "1"]},
                                {"breakpoints": [], "densities": ["1"]}]}).encode(),
         ("allocate", "--mechanism", "even-paz", "--profile", "{path}"),
         "profile.agents[0]: bounds must be strictly increasing"),
        (_discussion_witness(lambda w: w.update(violated="bogus")),
         ("verify", "{path}"), "witness.violated: unknown violation 'bogus'"),
        (_discussion_witness(lambda w: w.update(violated="proportionality")),
         ("verify", "{path}"), "witness.violated: 'proportionality' needs a 'report'"),
        (_discussion_witness(lambda w: w.update(violated="contiguity")),
         ("verify", "{path}"), "witness.violated: 'contiguity' needs a 'report'"),
        (_discussion_witness(lambda w: w.update(mechanism="even-paz")),
         ("verify", "{path}"), "witness.mechanism: 'even-paz' differs"),
        (_discussion_witness(lambda w: w["certificate"].update(mechanism="even-paz")),
         ("verify", "{path}"), "witness.mechanism: 'modified-ep-exchange' differs"),
        (_huge_denominator_profile(),
         ("allocate", "--mechanism", "modified-ep", "--profile", "{path}"),
         "more digits than the int-to-string limit"),
        (json.dumps({"agents": [{"breakpoints": ["1/1" + "0" * 4999],
                                 "densities": ["1", "1"]},
                                UNIFORM_PAIR["agents"][0]]}).encode(),
         ("allocate", "--mechanism", "even-paz", "--profile", "{path}"),
         "invalid rational '1/10000000000000000000…(5000 digits)'"),
        (b'{"agents": [{"breakpoints": [], "densities": [1e999]},'
         b' {"breakpoints": [], "densities": ["1"]}]}',
         ("allocate", "--mechanism", "even-paz", "--profile", "{path}"),
         "total mass 10000000000000000000…(1000 digits), expected exactly 1"),
        (json.dumps(UNIFORM_PAIR).encode(),
         ("learn", "--agent", "0", "--k", "2", "--eps", "1/100000000", "--profile", "{path}"),
         "query budget floor(2k/eps) = 400000000 exceeds 100000"),
        (json.dumps(UNIFORM_PAIR).encode(),
         ("gain", "--mechanism", "even-paz", "--agent", "1" * 5000, "--profile", "{path}"),
         "argument --agent: invalid int value: '11111111111111111111…(5000 digits)'"),
        (_allocate_scenario(profile={"file": 5}), ("run", "{path}"),
         "scenario.profile.file: expected a string, got 5"),
        (_allocate_scenario(profile={"file": ["p.json"]}), ("run", "{path}"),
         "scenario.profile.file: expected a string, got ['p.json']"),
        (_allocate_scenario(version=True), ("run", "{path}"),
         "scenario.version: expected the integer 1, got True"),
        (_allocate_scenario(version=1.0), ("run", "{path}"),
         "scenario.version: expected the integer 1, got Fraction(1, 1)"),
        (None, ("chain", "--name", "thm1", "--mechanism", "even-paz", "--n", str(MAX_AGENTS + 1)),
         f"argument 'n': at most {MAX_AGENTS} agents, got {MAX_AGENTS + 1}"),
        (json.dumps({"agents": UNIFORM_PAIR["agents"][:1] * (MAX_AGENTS + 1)}).encode(),
         ("allocate", "--mechanism", "even-paz", "--profile", "{path}"),
         f"profile.agents: at most {MAX_AGENTS} agents, got {MAX_AGENTS + 1}"),
        # control characters in an echoed name are escaped
        (_allocate_scenario(profile={"file": "a\nb"}), ("run", "{path}"),
         "file not found: {dir}/a\\nb"),
        (_allocate_scenario(profile={"file": "a\x00b"}), ("run", "{path}"),
         "{dir}/a\\x00b: cannot read (embedded null byte)"),
        (None, ("chain", "--name", "discussion", "a\nb"), "unrecognized arguments: a\\nb"),
        (None, ("chain", "--name", "discussion", "a\x00b"), "unrecognized arguments: a\\x00b"),
        # found by TestBoundaryFuzz
        (_allocate_scenario(command=["allocate"]), ("run", "{path}"),
         "scenario.command: unknown command ['allocate']"),
        (_allocate_scenario(arguments={"mechanism": ["even-paz"] * 50}), ("run", "{path}"),
         "argument 'mechanism': expected str, got ['even-paz', 'even-paz'"),
        (json.dumps(UNIFORM_PAIR).encode(),
         ("gain", "--mechanism", "even-paz", "--agent", "0", "--rounds", "65",
          "--profile", "{path}"), "argument 'rounds': at most 64, got 65"),
        # counted before any rational is parsed
        (json.dumps({"agents": [{"breakpoints": ["x"] * (MAX_BREAKPOINTS + 1),
                                 "densities": ["1"]}, UNIFORM_PAIR["agents"][0]]}).encode(),
         ("allocate", "--mechanism", "even-paz", "--profile", "{path}"),
         f"profile.agents[0].breakpoints: at most {MAX_BREAKPOINTS} breakpoints, "
         f"got {MAX_BREAKPOINTS + 1}"),
        (json.dumps({"agents": [{"breakpoints": [], "densities": ["x"] * (MAX_BREAKPOINTS + 2)},
                                UNIFORM_PAIR["agents"][0]]}).encode(),
         ("allocate", "--mechanism", "even-paz", "--profile", "{path}"),
         f"profile.agents[0].densities: at most {MAX_BREAKPOINTS + 1} densities, "
         f"got {MAX_BREAKPOINTS + 2}"),
    ], ids=["not-json", "directory", "verify-not-json", "not-utf8", "too-deep",
            "witness-parameters-array", "witness-mechanism-array",
            "certificate-agent-out-of-range", "certificate-agent-bool",
            "report-contiguous-string", "breakpoint-beyond-cake",
            "witness-violated-unknown", "gain-witness-as-proportionality",
            "gain-witness-as-contiguity", "witness-mechanism-relabeled",
            "certificate-mechanism-relabeled", "result-beyond-digit-limit",
            "5000-digit-denominator", "mass-1e999", "learn-query-budget",
            "argparse-5000-digit-agent", "scenario-profile-file-int",
            "scenario-profile-file-array", "scenario-version-true", "scenario-version-1.0",
            "chain-n-above-cap", "profile-agents-above-cap", "scenario-profile-file-newline",
            "scenario-profile-file-nul", "argparse-newline", "argparse-nul",
            "scenario-command-array", "echoed-array-cut", "gain-rounds-above-cap",
            "breakpoints-above-cap", "densities-above-cap"])
    def test_one_line_error(self, capsys, tmp_path, content, argv, names):
        path = tmp_path / "bad.json"
        if content is not None:
            path.write_bytes(content)
        argv = [a.format(path=path, dir=tmp_path) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("cakecut: error: ") and err.count("\n") == 1
        assert err[:-1].isprintable()
        assert len(err.encode()) <= 300
        assert names.replace("{dir}", str(tmp_path)) in err

    def test_breakpoint_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(io, "MAX_BREAKPOINTS", 2)
        v = io.valuation_from_json({"breakpoints": ["1/3", "2/3"],
                                    "densities": ["1/2", "1", "3/2"]}, "v")
        assert len(v.breakpoints) == 2
        with pytest.raises(FormatError, match=r"^v\.breakpoints: at most 2 breakpoints, got 3$"):
            io.valuation_from_json({"breakpoints": ["1/4", "1/2", "3/4"],
                                    "densities": ["1"] * 4}, "v")


class TestGainAtScale:
    def test_ten_thousand_breakpoints(self, tmp_path):
        # a search indexes about 6.7e9 misreports and builds only the sampled ones
        m = 10_000
        wide = cake.normalized([Fraction(j, m + 1) for j in range(1, m + 1)],
                               [1 + j % 2 for j in range(m + 1)])
        path = tmp_path / "wide.json"
        path.write_text(canonical_dumps(io.profile_to_json(
            cake.Profile.of([wide, cake.PiecewiseConstantValuation.uniform()]))))
        child = subprocess.run(
            [sys.executable, "-m", "cakecut.cli", "gain", "--mechanism", "even-paz",
             "--agent", "0", "--profile", str(path)],
            capture_output=True, env=_child_env(), timeout=120)
        assert child.returncode == 0, child.stderr
        assert Fraction(json.loads(child.stdout)["output"]["certificate"]["gain"]) >= 0


class TestJsonRoundTrip:
    """Writing, reading and writing again gives the first bytes exactly."""

    CFG = SearchConfig(mass_denominator=2, max_breakpoints=1, offset_rounds=0,
                       max_candidates=8)
    CHAINS = {"thm1": (thm1_chain, range(2, 6)), "prop1": (prop1_chain, range(2, 3)),
              "thm2": (thm2_chain, range(3, 6))}

    @staticmethod
    def assert_round_trip(obj, to_json, from_json):
        first = canonical_dumps(to_json(obj))
        again = from_json(load_text(first))
        assert canonical_dumps(to_json(again)) == first

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
           denom=st.sampled_from([3, 4, 12, 96]), data=st.data())
    def test_profiles_and_gain_certificates(self, seed, n, denom, data):
        profile = random_profile(random.Random(seed), n, max_breakpoints=4, denom=denom)
        self.assert_round_trip(profile, io.profile_to_json, io.profile_from_json)
        agent = data.draw(st.integers(0, n - 1))
        name = data.draw(st.sampled_from(sorted(SHARES_MIDDLE)))
        for cert in (best_response_gain(MECHANISMS[name], profile, agent, self.CFG),
                     ep_cutpoint_best_response(MECHANISMS[name], profile, agent, self.CFG)):
            self.assert_round_trip(cert, io.gain_certificate_to_json,
                                   lambda obj: io.certificate_from_json(obj, "certificate"))

    @settings(max_examples=40, deadline=None)
    @given(chain=st.sampled_from(sorted(CHAINS)),
           mechanism=st.sampled_from(sorted(MECHANISMS)), data=st.data())
    def test_chain_witnesses(self, chain, mechanism, data):
        run, sizes = self.CHAINS[chain]
        n = data.draw(st.sampled_from(sizes))
        witness = run(MECHANISMS[mechanism], ChainParameters.of(n))
        self.assert_round_trip(witness, io.witness_to_json, io.witness_from_json)

    def test_discussion_witness(self):
        _, witness = discussion_example()
        self.assert_round_trip(witness, io.witness_to_json, io.witness_from_json)


class _RefuseHugePowers(Fraction):
    """Stands in for Fraction inside cakecut.io: fails fast instead of
    building 10**999999999 if the exponent check ever lets the text through."""

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, str) and "999999999" in numerator:
            raise AssertionError(f"Fraction({numerator!r}) reached")
        return Fraction(numerator, denominator)


class TestDecimalExponents:
    @pytest.fixture(autouse=True)
    def guard(self, monkeypatch):
        monkeypatch.setattr(io, "Fraction", _RefuseHugePowers)

    @pytest.mark.parametrize("text", ["1e999999999", "1E-999999999", "2.5e+0_999999999",
                                      f"1e{cake.MAX_DECIMAL_EXPONENT + 1}"])
    def test_string_rejected(self, text):
        with pytest.raises(FormatError, match="exponent"):
            as_rational(text, "x")

    @pytest.mark.parametrize("text", ["1e999999999", "1.5E-999999999"])
    def test_json_number_rejected(self, text):
        with pytest.raises(FormatError, match="exponent"):
            load_text(f'{{"agents": [{text}]}}')

    def test_exponents_within_bound_exact(self):
        bound = cake.MAX_DECIMAL_EXPONENT
        assert as_rational(f"1e-{bound}", "x") == Fraction(1, 10 ** bound)
        assert load_text("[2.5e-1]") == [Fraction(1, 4)]

    def test_profile_file_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"agents": [{"breakpoints": [], "densities": [1e999999999]}]}')
        code, out, err = run_cli(capsys, "allocate", "--mechanism", "even-paz",
                                 "--profile", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("cakecut: error: ") and err.count("\n") == 1


class TestScenarios:
    def test_allocate_scenario(self, capsys, tmp_path):
        scenario = {"version": 1, "command": "allocate",
                    "arguments": {"mechanism": "even-paz"},
                    "profile": UNIFORM_PAIR}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        alloc = json.loads(out)["output"]["allocation"]
        assert alloc["pieces"] == [[["0", "1/2"]], [["1/2", "1"]]]

    def test_discussion_scenario_reports_gain(self, capsys, tmp_path):
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(
            {"version": 1, "command": "chain", "arguments": {"name": "discussion"}}))
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 2
        assert json.loads(out)["output"]["certificate"]["gain"] == "1/2"

    def test_profile_file_reference(self, capsys, tmp_path, uniform_profile):
        scenario = {"version": 1, "command": "check",
                    "arguments": {"mechanism": "modified-ep"},
                    "profile": {"file": uniform_profile}}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0

    def test_unknown_mechanism_message(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 1, "command": "allocate",
                                    "arguments": {"mechanism": "nope"},
                                    "profile": UNIFORM_PAIR}))
        code, out, err = run_cli(capsys, "run", str(path))
        assert (code, out) == (1, "")
        assert err == ("cakecut: error: unknown mechanism 'nope'; known: ['ep-exchange', "
                       "'equal-split', 'even-paz', 'modified-ep', 'modified-ep-exchange']\n")

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "command": "allocate",
                                    "bogus": 1}))
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert "bogus" in err

    def test_bool_seed_rejected(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 1, "command": "chain",
                                    "arguments": {"name": "discussion"}, "seed": True}))
        assert run_cli(capsys, "run", str(path)) == (
            1, "", "cakecut: error: scenario.seed: expected an integer\n")

    def test_roundtrip_identity(self, tmp_path):
        obj = {"version": 1, "command": "learn",
               "arguments": {"agent": 0, "k": 2, "eps": "1/5"},
               "profile": EXCHANGE_PAIR, "seed": 3}
        first = parse_scenario(obj)
        text = canonical_dumps(scenario_to_json(first))
        second = parse_scenario(json.loads(text))
        assert first == second
        assert canonical_dumps(scenario_to_json(second)) == text

    def test_run_scenario_api(self, tmp_path):
        scenario = {"version": 1, "command": "check",
                    "arguments": {"mechanism": "even-paz"},
                    "profile": UNIFORM_PAIR}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        report, code = run_scenario(str(path))
        assert code == 0
        assert report["exact"] is True
        assert report["output"]["report"]["proportionality_deficit"] == "0"


class Raw(str):
    """A JSON number written into the document as it stands."""


def _dumps(value) -> str:
    """JSON text of `value`, with every Raw written unquoted."""
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dumps, value)) + "]"
    return json.dumps(value)


def _nodes(value, path=()):
    """``(path, node)`` for every node of a JSON document, the root first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, (*path, key))


class TestBoundaryFuzz:
    """Mutated profiles, scenarios, witnesses and certificates fed to the CLI
    in-process: every run ends in exit 0 or 1 (2 only for a chain), one error
    line or none, and a `verified: true` only when the values stored in the
    document are the ones its mechanism gives."""

    KEYS = ["agents", "breakpoints", "densities", "kind", "mechanism", "profile",
            "agent", "misreport", "gain", "report", "contiguous", "chain", "violated",
            "epsilon", "certificate", "profiles", "parameters", "command", "arguments",
            "version", "seed", "file", "witness", "output", "name", "n", "k", "eps",
            "rounds", "max_candidates", "mass_denominator", "max_breakpoints", "x"]
    NUMBERS = [-1, -10 ** 6, 0, 1, 2, 3, MAX_AGENTS + 1, cakecut.cli.MAX_QUERY_BUDGET + 1,
               cakecut.cli.MAX_OFFSET_ROUNDS + 1, MAX_BREAKPOINTS + 1,
               Raw(f"1e{cake.MAX_DECIMAL_EXPONENT + 1}"), Raw(f"-1E+{cake.MAX_DECIMAL_EXPONENT + 1}"),
               Raw(f"2.5e-{cake.MAX_DECIMAL_EXPONENT + 1}"), Raw("1" * 4301), Raw("0.5"),
               Raw("-2.5")]
    STRINGS = ["", "x", "1/0", "-1/2", "3/2", "0.1", "1e1001", "1" * 4301, "a\nb",
               "even-paz", "modified-ep", "thm1", "discussion", "gain", "report",
               "profile.json"]
    scalars = (st.sampled_from(NUMBERS) | st.sampled_from(STRINGS)
               | st.sampled_from([None, True, False]))
    values = (scalars | st.lists(scalars, max_size=3)
              | st.dictionaries(st.sampled_from(KEYS), scalars, max_size=2))

    @staticmethod
    def seed_document(data):
        """(document, argv) from TestJsonRoundTrip's generators; "{path}" in
        argv stands for the document's file."""
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        profile = random_profile(rng, data.draw(st.integers(2, 5)), max_breakpoints=4,
                                 denom=data.draw(st.sampled_from([3, 4, 12, 96])))
        name = data.draw(st.sampled_from(sorted(MECHANISMS)))
        halving = data.draw(st.sampled_from(sorted(SHARES_MIDDLE)))
        kind = data.draw(st.sampled_from(["profile", "scenario", "witness", "gain", "report"]))
        if kind == "witness":
            chain = data.draw(st.sampled_from(sorted(TestJsonRoundTrip.CHAINS)))
            run, sizes = TestJsonRoundTrip.CHAINS[chain]
            witness = (discussion_example()[1] if data.draw(st.booleans()) else
                       run(MECHANISMS[name], ChainParameters.of(data.draw(st.sampled_from(sizes)))))
            return io.witness_to_json(witness), ["verify", "{path}"]
        if kind == "gain":
            engine = data.draw(st.sampled_from([best_response_gain, ep_cutpoint_best_response]))
            cert = engine(MECHANISMS[halving], profile, 0, TestJsonRoundTrip.CFG)
            return io.gain_certificate_to_json(cert), ["verify", "{path}"]
        if kind == "report":
            report = cakecut.check_properties(MECHANISMS[name], profile)
            return (io.property_certificate_to_json(
                cakecut.PropertyCertificate(name, profile, report)), ["verify", "{path}"])
        arguments = data.draw(st.sampled_from([
            {"command": "allocate", "mechanism": name},
            {"command": "check", "mechanism": name},
            {"command": "gain", "mechanism": halving, "agent": 1, "engine": "ep-exact",
             "rounds": 0, "mass_denominator": 2, "max_breakpoints": 1, "max_candidates": 8},
            {"command": "gain", "mechanism": name, "agent": 0, "rounds": 1,
             "mass_denominator": 2, "max_breakpoints": 1, "max_candidates": 8},
            {"command": "learn", "agent": 0, "k": 4, "eps": "1/2"},
        ]))
        command = arguments.pop("command")
        document = io.profile_to_json(profile)
        if kind == "profile":
            flags = [flag for key, value in arguments.items()
                     for flag in (f"--{key.replace('_', '-')}", str(value))]
            return document, [command, *flags, "--profile", "{path}"]
        if data.draw(st.booleans()):
            document = {"file": "profile.json"}
        scenario = data.draw(st.sampled_from([
            {"command": command, "arguments": arguments, "profile": document, "seed": 0},
            {"command": "chain", "arguments": {"name": "thm1", "mechanism": name, "n": 2}},
            {"command": "verify", "arguments": {
                "witness": io.witness_to_json(discussion_example()[1])}},
        ]))
        return {"version": 1, **scenario}, ["run", "{path}"]

    def mutate(self, document, data):
        """`document` with one node deleted, added to, replaced by a value of
        any type or by a number beyond a cap, or grown into a list of 2-50;
        or with a rational respelled unreduced, which leaves it valid, or
        moved by 1/7, which a verify must not accept as a stored value."""
        op = data.draw(st.sampled_from(
            ["delete", "add", "swap", "number", "grow", "respell", "tamper"]))
        nodes = list(_nodes(document))
        if op in ("respell", "tamper"):
            nodes = [(path, node) for path, node in nodes
                     if isinstance(node, str) and re.fullmatch(r"-?\d+(/\d+)?", node)]
            if not nodes:
                return document
        path, node = data.draw(st.sampled_from(nodes))
        if op == "respell":
            value = Fraction(node)
            new = f"{value.numerator * 3}/{value.denominator * 3}"
        elif op == "tamper":
            new = str(Fraction(node) + Fraction(1, 7))
        elif op == "add" and isinstance(node, dict):
            node[data.draw(st.sampled_from(self.KEYS))] = data.draw(self.values)
            return document
        elif op == "add" and isinstance(node, list):
            node.insert(data.draw(st.integers(0, len(node))), data.draw(self.values))
            return document
        elif op == "grow":
            items = node if isinstance(node, list) and node else [node]
            new = [items[i % len(items)] for i in range(data.draw(st.integers(2, 50)))]
        else:
            new = data.draw(st.sampled_from(self.NUMBERS) if op == "number" else self.values)
        if not path:
            return new
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
        return document

    @staticmethod
    def stored_values_hold(obj) -> bool:
        """Whether the values a verified document stores are those its
        mechanism gives, recomputed here through the library."""
        if isinstance(obj, dict) and "command" in obj and "output" in obj:
            obj = obj["output"]
        if isinstance(obj, dict) and "chain" in obj:
            obj = obj["certificate"]
        cert = io.certificate_from_json(obj, "certificate")
        mechanism = MECHANISMS[cert.mechanism]
        if cert.kind == "report":
            return cert.report == cakecut.check_properties(mechanism, cert.profile)
        fresh = cakecut.evaluate_misreport(mechanism, cert.profile, cert.agent, cert.misreport)
        return ((cert.truthful_value, cert.deviated_value, cert.gain)
                == (fresh.truthful_value, fresh.deviated_value, fresh.gain))

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_mutated_documents(self, data):
        document, argv = self.seed_document(data)
        document = self.mutate(document, data)
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_dumps(document))
            with open(os.path.join(work, "profile.json"), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(UNIFORM_PAIR))
            out, err = io_module.StringIO(), io_module.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([a.replace("{path}", path) for a in argv])
            out, err = out.getvalue(), err.getvalue()
            if err:
                assert code == 1 and out == ""
                assert err.startswith("cakecut: error: ") and err.count("\n") == 1
                assert err[:-1].isprintable() and len(err.encode()) <= 300
                return
            report = json.loads(out)
            assert code in (0, 1, 2)
            assert (code == 2) == (report["command"] == "chain")
            output = report["output"]
            if report["command"] == "verify":
                assert (code == 0) == output["verified"]
                if output["verified"]:
                    target = load_json(path)
                    if argv[0] == "run":
                        target = target["arguments"]["witness"]
                        if isinstance(target, str):
                            target = load_json(os.path.join(work, target))
                    assert self.stored_values_hold(target)
            else:
                assert code != 1
