"""Smoke test of tools/replay_refs.py on a few reference operations, and the
reference statuses of every verify operation."""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


replay_refs = _load("replay_refs", ROOT / "tools" / "replay_refs.py")
# the benchmark's own comparison, imported and never changed here
qbench_check = _load("qbench_check", ROOT / "qbench" / "check.py")


def _points(k=2):
    return sorted(json.loads(replay_refs.REFS.read_text())["refs"])[:k]


def test_replay_digests_exit_code_and_output(tmp_path, capsys, monkeypatch):
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps({"refs": {p: {} for p in _points()}}))
    monkeypatch.setattr(replay_refs, "REFS", refs)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert replay_refs.main(["--out", str(a)]) == 0
    digests = json.loads(a.read_text())
    assert len(digests) == 2 * len(replay_refs.COMMANDS)
    # the same tree replays to the same digests
    b.write_text(json.dumps(replay_refs.replay(_points())))
    assert replay_refs.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""
    # a tampered digest is listed, and fails the comparison
    op = sorted(digests)[0]
    digests[op] = "0" * 64
    b.write_text(json.dumps(digests))
    assert replay_refs.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.split("\n") == [op, ""]


def test_replay_and_compare_one_command(tmp_path, capsys, monkeypatch):
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps({"refs": {p: {} for p in _points()}}))
    monkeypatch.setattr(replay_refs, "REFS", refs)
    out = tmp_path / "zeros.json"
    assert replay_refs.main(["--commands", "zeros", "--out", str(out)]) == 0
    digests = json.loads(out.read_text())
    assert sorted(digests) == ["zeros %s" % p for p in _points()]
    # the recorded digests of these points, all four commands: only the
    # zeros operations are compared, and they match
    recorded = json.loads((ROOT / "tools" / "refs_digests.json").read_text())
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"%s %s" % (c, p): recorded["%s %s" % (c, p)]
                                for c in replay_refs.COMMANDS for p in _points()}))
    assert replay_refs.main(["--commands", "zeros", "--compare", str(full), str(out)]) == 0
    assert capsys.readouterr().err == "0 of 2 operations differ\n"
    # without the flag the other commands count as missing
    assert replay_refs.main(["--compare", str(full), str(out)]) == 1
    assert capsys.readouterr().err == "6 of 8 operations differ\n"


def test_replay_digest_separates_exit_codes_and_streams():
    from littleq.cli import main

    point = _points(1)[0].split(" ")
    ok = replay_refs.run_one(main, ["construct", *point])
    assert ok == replay_refs.run_one(main, ["construct", *point])
    bad = replay_refs.run_one(main, ["construct", *point, "--nmax", "-1"])
    assert bad != ok
    assert replay_refs.digest(0, "x", "") != replay_refs.digest(0, "", "x")
    assert replay_refs.digest(0, "x", "") != replay_refs.digest(1, "x", "")


def test_every_command_prints_the_recorded_bytes():
    # tools/refs_digests.json holds the digests of every reference operation;
    # re-record it (replay_refs.py --out) only with a change meant to move output
    recorded = json.loads((ROOT / "tools" / "refs_digests.json").read_text())
    points = sorted(json.loads(replay_refs.REFS.read_text())["refs"])
    got = replay_refs.replay(points)
    assert len(got) == len(replay_refs.COMMANDS) * len(points) == len(recorded)
    assert replay_refs.compare({op: recorded[op] for op in got}, got) == []


def test_every_verify_keeps_its_reference_statuses():
    # exit code, verdict and sorted (name, status) list of every reference
    # verify operation, compared by qbench/check.py's judge (its canonical form
    # against refs.json); re-recorded digests cannot hide a change to these.
    # A point whose verify raised when the references were recorded must now
    # exit 0 and pass.
    from littleq.cli import main

    refs = json.loads(replay_refs.REFS.read_text())["refs"]
    wrong = []
    for point, ref in sorted(refs.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", *point.split(" ")])
        why = qbench_check.judge("verify", {"code": code, "stdout": out.getvalue()}, ref["verify"])
        if why is not None:
            wrong.append((point, why))
    assert len(refs) == 125 and wrong == []
