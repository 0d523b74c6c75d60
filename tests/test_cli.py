"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_catalog_command(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "Akamai" in out
    assert "Bing CDN (measured)" in out
    assert "anycast" in out


def test_catalog_custom_bing_count(capsys):
    main(["catalog", "--bing-locations", "99"])
    out = capsys.readouterr().out
    assert "   99" in out


def test_report_command_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code = main([
        "report", "--prefixes", "60", "--days", "2", "--seed", "5",
        "--out", str(out_file),
    ])
    assert code == 0
    text = out_file.read_text()
    assert "Fig 3" in text
    assert "Fig 9" in text
    assert "wrote report" in capsys.readouterr().out


def test_failover_command(capsys):
    code = main([
        "failover", "fe-lon", "--prefixes", "60", "--days", "1",
        "--seed", "5",
    ])
    assert code == 0
    assert "Withdrawal cascade" in capsys.readouterr().out


def test_failover_unknown_frontend(capsys):
    code = main([
        "failover", "fe-atlantis", "--prefixes", "60", "--days", "1",
        "--seed", "5",
    ])
    assert code == 2
    assert "unknown front-end" in capsys.readouterr().err


def test_run_and_analyze_round_trip(tmp_path, capsys):
    dataset_path = str(tmp_path / "ds.json")
    assert main([
        "run", "--prefixes", "50", "--days", "3", "--seed", "9",
        dataset_path,
    ]) == 0
    assert "campaign complete" in capsys.readouterr().out

    # One export file plus its run manifest; no second copy beside it.
    assert sorted(os.listdir(tmp_path)) == ["ds.json", "ds.manifest.json"]

    assert main(["analyze", dataset_path, "--figures", "fig3", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "Fig 3" in out
    assert "Fig 5" in out


def _export_with_version(path, version):
    from .helpers import framed_export, make_client, make_dataset

    text = framed_export(
        make_dataset([make_client(0)]), format_version=version
    ).getvalue()
    path.write_text(text)


@pytest.mark.parametrize("command", ["analyze", "replay"])
@pytest.mark.parametrize(
    "version, content",
    [
        (3, None),
        (99, None),
        (99, '{"format_version": 99, "clients": []}\n'),
    ],
    ids=["framed-v3", "framed-v99", "json-document-v99"],
)
def test_unsupported_export_version_is_one_line(
    tmp_path, capsys, command, version, content
):
    path = tmp_path / "old.json"
    if content is None:
        _export_with_version(path, version)
    else:
        path.write_text(content)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(path) in err
    assert f"format version {version}" in err


@pytest.mark.parametrize("command", ["analyze", "replay"])
def test_missing_export_is_one_line(tmp_path, capsys, command):
    path = tmp_path / "nope.json"
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(path) in err


def test_run_with_history_hashes_dataset_once(tmp_path, capsys, monkeypatch):
    import json

    from repro.simulation.dataset import StudyDataset

    calls = []
    original = StudyDataset.digest

    def counting_digest(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(StudyDataset, "digest", counting_digest)
    dataset_path = str(tmp_path / "ds.json")
    history_path = tmp_path / "history.json"
    assert main([
        "run", "--prefixes", "40", "--days", "2", "--seed", "9",
        "--history-out", str(history_path), dataset_path,
    ]) == 0
    assert len(calls) == 1
    manifest = json.loads((tmp_path / "ds.manifest.json").read_text())
    records = json.loads(history_path.read_text())["records"]
    assert records[-1]["dataset_digest"] == manifest["dataset_digest"]


def test_analyze_all_default(tmp_path, capsys):
    dataset_path = str(tmp_path / "ds.json")
    main(["run", "--prefixes", "50", "--days", "3", "--seed", "9", dataset_path])
    capsys.readouterr()
    assert main(["analyze", dataset_path]) == 0
    out = capsys.readouterr().out
    for marker in ("Fig 3", "Fig 5", "Fig 6", "Fig 9"):
        assert marker in out


def test_analyze_unknown_figure(tmp_path, capsys):
    dataset_path = str(tmp_path / "ds.json")
    main(["run", "--prefixes", "50", "--days", "2", "--seed", "9", dataset_path])
    capsys.readouterr()
    assert main(["analyze", dataset_path, "--figures", "nope"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_troubleshoot_command(capsys):
    code = main([
        "troubleshoot", "--prefixes", "60", "--days", "1", "--seed", "5",
        "--top", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "vantages with anycast carried" in out
