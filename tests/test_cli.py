"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def workload_path(tmp_path):
    path = tmp_path / "workload.json"
    exit_code = main([
        "generate", str(path), "--kind", "uniform", "--n", "80",
        "--delta", "4096", "--true-k", "3", "--noise", "2", "--seed", "4",
    ])
    assert exit_code == 0
    return path


class TestGenerate:
    def test_writes_valid_json(self, workload_path):
        data = json.loads(workload_path.read_text())
        assert data["delta"] == 4096
        assert len(data["alice"]) == 83
        assert len(data["bob"]) == 83

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "sensor", "geo"])
    def test_all_kinds(self, tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        args = ["generate", str(path), "--kind", kind, "--n", "40",
                "--delta", "4096", "--seed", "1"]
        assert main(args) == 0
        data = json.loads(path.read_text())
        assert data["alice"]

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--kind", "uniform", "--n", "30", "--seed", "9"]
        main(["generate", str(a)] + args)
        main(["generate", str(b)] + args)
        assert a.read_text() == b.read_text()


class TestReconcile:
    def test_one_round(self, workload_path, capsys):
        assert main(["reconcile", str(workload_path), "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert "one-round" in out
        assert "|S'_B|   : 83" in out

    def test_adaptive(self, workload_path, capsys):
        assert main([
            "reconcile", str(workload_path), "--k", "8", "--adaptive",
        ]) == 0
        assert "adaptive 2-round" in capsys.readouterr().out

    def test_output_file(self, workload_path, tmp_path):
        out_path = tmp_path / "repaired.json"
        assert main([
            "reconcile", str(workload_path), "--k", "8",
            "--output", str(out_path),
        ]) == 0
        repaired = json.loads(out_path.read_text())["repaired"]
        assert len(repaired) == 83

    def test_bad_workload_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alice": []}))
        assert main(["reconcile", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestEstimateAndInfo:
    def test_estimate_prints_levels(self, workload_path, capsys):
        assert main(["estimate", str(workload_path), "--k", "8"]) == 0
        out = capsys.readouterr().out
        # Pinned: the per-level estimates Alice computes for this workload
        # (the table the command printed when it parsed the request itself).
        assert out.splitlines() == [
            "level  cell side  est. difference",
            "    0          1              144",
            "    2          4               88",
            "    4         16               56",
            "    6         64               24",
            "    8        256                8",
            "   10       1024                4",
            "   12       4096                2",
        ]

    def test_info(self, capsys):
        assert main([
            "info", "--delta", "65536", "--dimension", "2", "--k", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "one-round message" in out
        assert "lower bound" in out


class TestServeStore:
    """``serve --store-dir`` operator mistakes die typed: one ``error:``
    line on stderr, exit code 2, never a traceback."""

    def test_missing_store_dir_is_typed(self, workload_path, tmp_path, capsys):
        code = main([
            "serve", str(workload_path), "--k", "8",
            "--store-dir", str(tmp_path / "nope"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "does not exist" in captured.err
        assert "Traceback" not in captured.err

    def test_corrupt_store_is_typed(self, workload_path, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "snapshot.bin").write_bytes(b"not a snapshot at all")
        code = main([
            "serve", str(workload_path), "--k", "8",
            "--store-dir", str(store_dir),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "CRC" in captured.err
        assert "Traceback" not in captured.err

    def test_workload_store_mismatch_is_typed(
        self, workload_path, tmp_path, capsys
    ):
        import json as json_module

        from repro.core.config import ProtocolConfig
        from repro.store import DurableSketchStore

        data = json_module.loads(workload_path.read_text())
        config = ProtocolConfig(
            delta=data["delta"], dimension=data["dimension"], k=8, seed=0,
        )
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        store = DurableSketchStore.open(config, str(store_dir))
        store.bulk_load([tuple(p) for p in data["alice"][:10]])
        code = main([
            "serve", str(workload_path), "--k", "8",
            "--store-dir", str(store_dir),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "refusing to serve inconsistent state" in captured.err

    def test_serve_sync_end_to_end_with_recovery(
        self, workload_path, tmp_path, capsys
    ):
        """First boot bulk-loads and snapshots; a second incarnation
        recovers and the client's ``sync`` output says so."""
        import re
        import subprocess
        import sys

        store_dir = tmp_path / "store"
        store_dir.mkdir()

        def serve_one_sync():
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    str(workload_path), "--k", "8", "--port", "0",
                    "--store-dir", str(store_dir), "--max-syncs", "1",
                ],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            try:
                banner = process.stdout.readline()
                match = re.search(r"on [\w.]+:(\d+) ", banner)
                assert match, banner
                store_line = process.stdout.readline()
                code = main([
                    "sync", str(workload_path),
                    "--port", match.group(1), "--k", "8",
                ])
                assert code == 0
                assert process.wait(timeout=20) == 0
            finally:
                process.kill()
            return store_line

        first = serve_one_sync()
        first_sync_out = capsys.readouterr().out
        assert "first boot; snapshot published" in first
        assert "server   : recovered from fresh" in first_sync_out

        second = serve_one_sync()
        second_sync_out = capsys.readouterr().out
        assert "recovered from snapshot (generation 1" in second
        assert "server   : recovered from snapshot" in second_sync_out
        assert "repair" in second_sync_out
