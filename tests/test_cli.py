import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from queryspell import LoadError
from queryspell.cli import cli_main
from queryspell.dictionary import (build_delete_index, load_dictionary_dir,
                                   write_dictionary_dir)


@pytest.fixture()
def sources(tmp_path):
    lex = tmp_path / "lexicon.tsv"
    lex.write_text("".join(f"{t}\t{c}\n" for t, c in [
        ("museum", 9000), ("medal", 450), ("icon", 3200), ("park", 4100),
        ("creative", 8200), ("cloud", 7400), ("cat", 2600), ("cart", 900),
    ]), encoding="utf-8")
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("photoshop\t8800\nexpress\t5100\n", encoding="utf-8")
    stats = tmp_path / "stats.tsv"
    stats.write_text("museum\t27000\t4500\nicon\t9600\t1600\n", encoding="utf-8")
    return lex, vocab, stats


def _build(tmp_path, sources, out_name="arts"):
    lex, vocab, stats = sources
    out = tmp_path / out_name
    code = cli_main(["build-index", "--lexicon", str(lex), "--vocab", str(vocab),
                     "--stats", str(stats), "--out-dir", str(out)])
    assert code == 0
    return out


class TestBuildIndex:
    def test_writes_artifact_files(self, tmp_path, sources, capsys):
        out = _build(tmp_path, sources)
        assert (out / "dictionary.tsv").exists()
        assert (out / "stats.tsv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["terms"] == 10
        assert "wrote 10 terms" in capsys.readouterr().out

    def test_byte_identical_across_runs(self, tmp_path, sources):
        a = _build(tmp_path, sources, "a")
        b = _build(tmp_path, sources, "b")
        for name in ("dictionary.tsv", "stats.tsv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_file_is_failure(self, tmp_path, capsys):
        code = cli_main(["build-index", "--lexicon", str(tmp_path / "absent.tsv"),
                         "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "speller:" in capsys.readouterr().err


class TestGenData:
    def test_deterministic_given_seed(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("medal icon\ncreative cloud\nmuseum\n", encoding="utf-8")
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            code = cli_main(["gen-data", "--in", str(queries), "--out", str(out),
                             "--seed", "7", "--error-prob", "0.5"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 3

    def test_different_seed_differs(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("medal icon\ncreative cloud\n" * 10, encoding="utf-8")
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.tsv"
            assert cli_main(["gen-data", "--in", str(queries), "--out", str(out),
                             "--seed", seed]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]


class TestTrainCorrectEval:
    @pytest.fixture()
    def trained_dir(self, tmp_path, sources):
        arts = _build(tmp_path, sources)
        queries = tmp_path / "queries.txt"
        queries.write_text("".join(q + "\n" for q in [
            "medal icon", "creative cloud", "museum", "park museum",
            "photoshop express", "cat cart", "icon park", "museum icon",
        ] * 25), encoding="utf-8")
        data = tmp_path / "train.tsv"
        assert cli_main(["gen-data", "--in", str(queries), "--out", str(data),
                         "--seed", "3"]) == 0
        assert cli_main(["train", "--data", str(data), "--dict", str(arts),
                         "--out", str(arts / "model.json"), "--seed", "1",
                         "--epochs", "6"]) == 0
        return arts

    def test_train_is_deterministic(self, tmp_path, trained_dir):
        first = (trained_dir / "model.json").read_bytes()
        data = tmp_path / "train.tsv"
        assert cli_main(["train", "--data", str(data), "--dict", str(trained_dir),
                         "--out", str(tmp_path / "model2.json"), "--seed", "1",
                         "--epochs", "6"]) == 0
        assert (tmp_path / "model2.json").read_bytes() == first

    def test_correct_from_arguments(self, trained_dir, capsys):
        code = cli_main(["correct", "--artifacts", str(trained_dir), "muzeem"])
        assert code == 0
        out = capsys.readouterr().out
        fields = out.strip().split("\t")
        assert fields[0] == "muzeem"
        assert fields[1] == "museum"
        assert 0.0 <= float(fields[2]) <= 1.0

    def test_correct_without_model_exits_1(self, trained_dir, capsys):
        (trained_dir / "model.json").unlink()
        assert cli_main(["correct", "--artifacts", str(trained_dir), "muzeem"]) == 1
        assert str(trained_dir / "model.json") in capsys.readouterr().err

    def test_correct_from_stdin(self, trained_dir, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("muzeem\nicon\n"))
        assert cli_main(["correct", "--artifacts", str(trained_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split("\t")[1] == "icon"

    def test_eval_with_precomputed_predictions(self, tmp_path, capsys):
        data = tmp_path / "eval.tsv"
        rows = [("muzeem", "museum", "museum"),
                ("crative cloud", "creative cloud", "creative cloud"),
                ("photoshp", "photoshop", "photoshop"),
                ("glaicer park", "glacier park", "glacier park"),
                (",edal icon", "medal icon", "medal icon"),
                ("frsh flowers", "fresh flowers", "frsh flowers"),
                ("museum", "museum", "museum"),
                ("creative cloud", "creative cloud", "creative cloud"),
                ("icon", "icon", "icon"),
                ("express", "express", "espresso")]
        data.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
        report_path = tmp_path / "report.json"
        code = cli_main(["eval", "--data", str(data), "--json", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        accuracy_line = next(l for l in out.splitlines() if l.startswith("accuracy"))
        assert "0.8000" in accuracy_line
        report = json.loads(report_path.read_text())
        assert report["accuracy"] == 0.8

    def test_eval_against_artifacts(self, tmp_path, trained_dir, capsys):
        data = tmp_path / "eval2.tsv"
        data.write_text("muzeem\tmuseum\nicon\ticon\n", encoding="utf-8")
        assert cli_main(["eval", "--data", str(data),
                         "--artifacts", str(trained_dir)]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_refresh_updates_artifacts(self, tmp_path, trained_dir, capsys):
        log = tmp_path / "log.tsv"
        log.write_text("blockchain\t500\nmuseum\t10\n", encoding="utf-8")
        assert cli_main(["refresh", "--artifacts", str(trained_dir),
                         "--log", str(log), "--min-count", "100"]) == 0
        dictionary = (trained_dir / "dictionary.tsv").read_text()
        assert "blockchain\t500" in dictionary


class TestIndexParametersFromManifest:
    """The index parameters are fixed at prefix length 7 and edit distance
    2: build-index records them in manifest.json, the commands that read an
    artifact directory refuse a manifest that records others, and no command
    takes them as flags."""

    @pytest.mark.parametrize("key, value", [("prefix_length", 5),
                                            ("max_edit_distance", 1)])
    def test_other_manifest_parameters_are_refused(self, artifact_dir, toy_dictionary,
                                                   key, value, capsys):
        write_dictionary_dir(artifact_dir, toy_dictionary,
                             build_delete_index(toy_dictionary))
        manifest_path = artifact_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(LoadError, match="manifest.json"):
            load_dictionary_dir(artifact_dir)
        log = artifact_dir / "log.tsv"
        log.write_text("blockchain\t500\n", encoding="utf-8")
        dictionary = (artifact_dir / "dictionary.tsv").read_bytes()
        for argv in (["correct", "--artifacts", str(artifact_dir), "muzeem"],
                     ["refresh", "--artifacts", str(artifact_dir), "--log", str(log)]):
            assert cli_main(argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert f"bad {key} in manifest: {value};" in err
            assert "speller build-index" in err
        assert (artifact_dir / "dictionary.tsv").read_bytes() == dictionary

    @pytest.mark.parametrize("flag, value", [("--prefix-length", "5"),
                                             ("--max-edit-distance", "1")])
    def test_build_index_takes_no_index_flags(self, tmp_path, sources, flag, value,
                                              capsys):
        lex, _, _ = sources
        assert cli_main(["build-index", "--lexicon", str(lex), flag, value,
                         "--out-dir", str(tmp_path / "arts")]) == 2
        assert not (tmp_path / "arts").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "d", "--dict", "a", "--out", "m", "--prefix-length", "5"],
        ["train", "--data", "d", "--dict", "a", "--out", "m", "--max-edit-distance", "1"],
        ["refresh", "--artifacts", "a", "--log", "l", "--prefix-length", "5"],
        ["refresh", "--artifacts", "a", "--log", "l", "--max-edit-distance", "1"],
        ["refresh", "--artifacts", "a", "--log", "l", "--locale", "en"],
    ])
    # Of these flags only --locale is left, on build-index alone.
    def test_index_flags_exist_only_on_build_index(self, argv, capsys):
        assert cli_main(argv) == 2


class TestRefreshManifest:
    def test_refresh_rewrites_manifest(self, artifact_dir, toy_dictionary):
        write_dictionary_dir(artifact_dir, toy_dictionary,
                             build_delete_index(toy_dictionary))
        log = artifact_dir / "log.tsv"
        log.write_text("blockchain\t500\n", encoding="utf-8")
        assert cli_main(["refresh", "--artifacts", str(artifact_dir),
                         "--log", str(log)]) == 0
        lines = (artifact_dir / "dictionary.tsv").read_text().splitlines()
        manifest = json.loads((artifact_dir / "manifest.json").read_text())
        assert len(lines) == manifest["terms"] == 41
        # The merged index has the key count of a full rebuild.
        _, rebuilt, _ = load_dictionary_dir(artifact_dir)
        assert manifest["variants"] == len(rebuilt) > len(build_delete_index(toy_dictionary))
        assert not [p.name for p in artifact_dir.iterdir() if p.name.endswith(".tmp")]

    def test_refresh_without_manifest_writes_one(self, artifact_dir):
        log = artifact_dir / "log.tsv"
        log.write_text("museum\t1\n", encoding="utf-8")
        assert cli_main(["refresh", "--artifacts", str(artifact_dir),
                         "--log", str(log)]) == 0
        manifest = json.loads((artifact_dir / "manifest.json").read_text())
        assert manifest["terms"] == 40
        assert (manifest["prefix_length"], manifest["max_edit_distance"]) == (7, 2)


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli_main(["bogus"]) == 2
        assert "speller" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self, capsys):
        assert cli_main([]) == 2

    def test_missing_required_flag_exits_2(self, capsys):
        assert cli_main(["build-index"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert cli_main(["gen-data", "--nonsense"]) == 2


def test_module_entry_point_prints_help():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "queryspell.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    for command in ("build-index", "gen-data", "train", "correct", "eval",
                    "serve", "refresh"):
        assert command in proc.stdout
