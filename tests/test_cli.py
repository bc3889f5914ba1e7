"""Command-line interface: artifacts, replay, offline commands, exit codes."""

import random

import pytest

from chaingen import random_chain
from layerdag import io as chainio
from layerdag.cli import EXIT_CONFIG, EXIT_FAILED, EXIT_OK, main


@pytest.fixture
def chain_file(tmp_path):
    rng = random.Random("cli-chain")
    chain = random_chain(rng, 4, 40)
    path = tmp_path / "chain.txt"
    with open(path, "w") as fh:
        chainio.write_chain(chain, fh)
    return str(path)


def test_run_writes_artifacts_and_passes(tmp_path, capsys):
    out = tmp_path / "artifacts"
    rc = main(
        ["run", "--nodes", "4", "--steps", "40", "--seed", "cli", "--out", str(out)]
    )
    assert rc == EXIT_OK
    captured = capsys.readouterr().out
    assert "finalized=" in captured
    for name in ("manifest.txt", "trace.txt", "report.txt", "node0.snapshot"):
        assert (out / name).exists()
    report = (out / "report.txt").read_text()
    assert "chain-consistency=PASS" in report
    assert "layering-equivalence=PASS" in report


def test_run_byzantine_reports_fork_exclusion(capsys):
    rc = main(
        [
            "run",
            "--nodes",
            "7",
            "--steps",
            "40",
            "--seed",
            "cli-byz",
            "--byzantine",
            "6:forker",
            "--wp",
            "1",
            "--wc",
            "1",
        ]
    )
    assert rc == EXIT_OK
    assert "fork-exclusion=PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra,replay_seed",
    [
        pytest.param(["--delay", "rand:2"], None, id="rand"),
        pytest.param(
            ["--nodes", "5", "--byzantine", "4:forker", "--wp", "2", "--wc", "3"],
            None,
            id="forker",
        ),
        pytest.param(
            ["--algo", "cg", "--width", "6", "--k", "2", "--strategy", "fair"],
            None,
            id="cg",
        ),
        # the manifest's seed wins over ONLAY_SEED on replay
        pytest.param(["--delay", "rand:2"], "other", id="seed-env"),
    ],
)
def test_replay_matches_recording(tmp_path, capsys, monkeypatch, extra, replay_seed):
    out = tmp_path / "rec"
    args = ["--nodes", "4", "--steps", "30", "--seed", "replay", *extra]
    assert main(["run", *args, "--out", str(out)]) == EXIT_OK
    if replay_seed is not None:
        monkeypatch.setenv("ONLAY_SEED", replay_seed)
    assert main(["replay", str(out)]) == EXIT_OK
    # tampering with the trace must be caught
    trace = out / "trace.txt"
    trace.write_text(trace.read_text() + "step=999 send:Fake src=0 dst=1 payload=x\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == EXIT_FAILED
    assert "MISMATCH trace.txt" in capsys.readouterr().out


def test_verify_prints_pass_lines(capsys):
    rc = main(["verify", "--nodes", "4", "--steps", "40", "--seed", "v"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        name, _, status = line.partition("=")
        assert status == "PASS", line


def test_layer_command_lpl_vs_cg(chain_file, capsys):
    assert main(["layer", chain_file]) == EXIT_OK
    lpl_out = capsys.readouterr().out
    assert lpl_out.startswith("layer 1:")
    assert main(["layer", chain_file, "--algo", "cg"]) == EXIT_OK
    cg_out = capsys.readouterr().out
    assert cg_out == lpl_out  # fork-free chain at the default bound


def test_roots_command(chain_file, capsys):
    assert main(["roots", chain_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("frame 1:")


def test_finality_command(chain_file, capsys):
    assert main(["finality", chain_file]) == EXIT_OK
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        assert line.startswith("pos=")


def test_export_dot_command(chain_file, tmp_path, capsys):
    target = tmp_path / "g.dot"
    assert main(["export-dot", chain_file, "--out", str(target)]) == EXIT_OK
    assert target.read_text().startswith("digraph")
    assert main(["export-dot", chain_file]) == EXIT_OK
    assert capsys.readouterr().out.startswith("digraph")


def test_seed_env_override(tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    monkeypatch.setenv("ONLAY_SEED", "winner")
    assert main(["run", "--nodes", "3", "--steps", "20", "--seed", "loser", "--out", str(out_a)]) == EXIT_OK
    monkeypatch.delenv("ONLAY_SEED")
    assert main(["run", "--nodes", "3", "--steps", "20", "--seed", "winner", "--out", str(out_b)]) == EXIT_OK
    assert (out_a / "trace.txt").read_text() == (out_b / "trace.txt").read_text()
    assert (out_a / "node0.snapshot").read_text() == (
        out_b / "node0.snapshot"
    ).read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--delay", "carrier-pigeon"],
        ["run", "--delay", "drop:2.0"],
        ["run", "--byzantine", "notanumber:forker"],
        ["run", "--byzantine", "1:sleeper"],
        ["run", "--strategy", "psychic"],
        ["run", "--nodes", "1"],
        ["replay", "/nonexistent/dir"],
    ],
)
def test_config_errors_exit_2(argv, capsys):
    assert main(argv) == EXIT_CONFIG


def test_bad_chain_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("event deadbeef nope\n")
    assert main(["layer", str(bad)]) == EXIT_CONFIG
