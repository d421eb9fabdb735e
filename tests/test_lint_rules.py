"""Fixture self-tests for every repro-lint rule.

Each rule gets at least one minimal *bad* fixture proving it fires and a
*corrected* twin proving it stays silent — the linter's own differential
suite.  Fixtures are synthetic package trees written under ``tmp_path``;
scope-sensitive rules get their files placed under the protected paths
(``session/``, ``core/``, ``core/sketch.py``, ...).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.iblt.backends.base import Backend
from repro.iblt.backends.pure import PureBackend
from repro.lint import run_lint


def write_tree(root, files: dict[str, str]):
    """Materialise ``{relpath: source}`` as a package tree and return root."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "__init__.py").write_text("", encoding="utf-8")
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        for parent in path.relative_to(root).parents:
            if str(parent) != ".":
                init = root / parent / "__init__.py"
                if not init.exists():
                    init.write_text("", encoding="utf-8")
        path.write_text(source, encoding="utf-8")
    return root


def codes_of(report):
    return sorted({finding.code for finding in report.findings})


def lint_files(tmp_path, files, select=None, registry=None):
    root = write_tree(tmp_path / "pkg", files)
    return run_lint(root, select=select, registry=registry)


# --------------------------------------------------------------- RPL001


class TestSansIOPurity:
    def test_fires_on_asyncio_import_in_session(self, tmp_path):
        report = lint_files(
            tmp_path,
            {"session/machine.py": "import asyncio\n"},
            select={"RPL001"},
        )
        assert codes_of(report) == ["RPL001"]
        assert "asyncio" in report.findings[0].message

    def test_fires_on_time_import_in_codec(self, tmp_path):
        report = lint_files(
            tmp_path,
            {"net/codec.py": "from time import monotonic\n"},
            select={"RPL001"},
        )
        assert codes_of(report) == ["RPL001"]

    def test_silent_on_corrected_module(self, tmp_path):
        report = lint_files(
            tmp_path,
            {"session/machine.py": "from collections import deque\n"},
            select={"RPL001"},
        )
        assert report.findings == []

    def test_silent_outside_protected_scope(self, tmp_path):
        # The transport layer is allowed to import asyncio.
        report = lint_files(
            tmp_path,
            {"serve/service.py": "import asyncio\nimport time\n"},
            select={"RPL001"},
        )
        assert report.findings == []


# --------------------------------------------------------------- RPL002


BAD_NUMPY = "import numpy as _np\n"
GOOD_NUMPY = (
    "try:\n"
    "    import numpy as _np\n"
    "except ImportError:\n"
    "    _np = None\n"
)


class TestNumpyOptional:
    def test_fires_on_unguarded_import(self, tmp_path):
        report = lint_files(
            tmp_path, {"emd/extra.py": BAD_NUMPY}, select={"RPL002"}
        )
        assert codes_of(report) == ["RPL002"]
        assert "unguarded" in report.findings[0].message

    def test_fires_on_from_numpy_import(self, tmp_path):
        report = lint_files(
            tmp_path,
            {"emd/extra.py": "from numpy import packbits\n"},
            select={"RPL002"},
        )
        assert codes_of(report) == ["RPL002"]

    def test_fires_when_fallback_sentinel_missing(self, tmp_path):
        source = (
            "try:\n"
            "    import numpy as _np\n"
            "except ImportError:\n"
            "    pass\n"
        )
        report = lint_files(
            tmp_path, {"emd/extra.py": source}, select={"RPL002"}
        )
        assert codes_of(report) == ["RPL002"]
        assert "pure fallback" in report.findings[0].message

    def test_silent_on_guarded_import_with_fallback(self, tmp_path):
        report = lint_files(
            tmp_path, {"emd/extra.py": GOOD_NUMPY}, select={"RPL002"}
        )
        assert report.findings == []


# --------------------------------------------------------------- RPL003


class TestTypedErrors:
    def test_fires_on_bare_value_error(self, tmp_path):
        source = (
            "def f(x):\n"
            "    if x < 0:\n"
            "        raise ValueError('negative')\n"
        )
        report = lint_files(
            tmp_path, {"iblt/check.py": source}, select={"RPL003"}
        )
        assert codes_of(report) == ["RPL003"]

    def test_fires_on_project_exception_outside_hierarchy(self, tmp_path):
        source = (
            "class RogueError(RuntimeError):\n"
            "    pass\n"
            "def f():\n"
            "    raise RogueError('x')\n"
        )
        report = lint_files(
            tmp_path, {"iblt/check.py": source}, select={"RPL003"}
        )
        assert codes_of(report) == ["RPL003"]
        assert "RogueError" in report.findings[0].message

    def test_silent_on_typed_error(self, tmp_path):
        files = {
            "errors.py": (
                "class ReproError(Exception):\n"
                "    pass\n"
                "class ConfigError(ReproError, ValueError):\n"
                "    pass\n"
            ),
            "iblt/check.py": (
                "from pkg.errors import ConfigError\n"
                "def f(x):\n"
                "    if x < 0:\n"
                "        raise ConfigError('negative')\n"
            ),
        }
        report = lint_files(tmp_path, files, select={"RPL003"})
        assert report.findings == []

    def test_silent_on_bare_reraise_and_unresolvable(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception as exc:\n"
            "        raise\n"
            "def h(exc):\n"
            "    raise exc\n"
        )
        report = lint_files(
            tmp_path, {"iblt/check.py": source}, select={"RPL003"}
        )
        assert report.findings == []


# --------------------------------------------------------------- RPL004


class TestDeterminism:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nx = random.random()\n",
            "import random\nrandom.seed(4)\n",
            "import random\nrng = random.SystemRandom()\n",
            "from random import randint\n",
            "import os\nx = os.urandom(8)\n",
            "import secrets\n",
        ],
    )
    def test_fires_on_ambient_entropy(self, tmp_path, snippet):
        report = lint_files(
            tmp_path, {"core/coins.py": snippet}, select={"RPL004"}
        )
        assert "RPL004" in codes_of(report)

    def test_silent_on_seeded_public_coins(self, tmp_path):
        source = (
            "import random\n"
            "def draw(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.getrandbits(64)\n"
        )
        report = lint_files(
            tmp_path, {"core/coins.py": source}, select={"RPL004"}
        )
        assert report.findings == []

    def test_silent_outside_protocol_scope(self, tmp_path):
        report = lint_files(
            tmp_path,
            {"workloads/gen.py": "import random\nx = random.random()\n"},
            select={"RPL004"},
        )
        assert report.findings == []


# --------------------------------------------------------------- RPL005


class TestWireMagicUniqueness:
    def test_fires_on_retyped_literal(self, tmp_path):
        files = {
            "core/wire.py": "FRAME_MAGIC = 0xC7\n",
            "core/parse.py": (
                "def check(byte):\n"
                "    return byte == 0xC7\n"
            ),
        }
        report = lint_files(tmp_path, files, select={"RPL005"})
        assert codes_of(report) == ["RPL005"]
        assert "FRAME_MAGIC" in report.findings[0].message

    def test_fires_on_duplicate_definition(self, tmp_path):
        files = {
            "core/wire.py": "FRAME_MAGIC = 0xC7\n",
            "scale/wire.py": "OTHER_MAGIC = 0xC7\n",
        }
        report = lint_files(tmp_path, files, select={"RPL005"})
        assert codes_of(report) == ["RPL005"]
        assert "defined again" in report.findings[0].message

    def test_silent_when_imported_by_name(self, tmp_path):
        files = {
            "core/wire.py": "FRAME_MAGIC = 0xC7\n",
            "core/parse.py": (
                "from pkg.core.wire import FRAME_MAGIC\n"
                "def check(byte):\n"
                "    return byte == FRAME_MAGIC\n"
            ),
        }
        report = lint_files(tmp_path, files, select={"RPL005"})
        assert report.findings == []

    def test_decimal_coincidence_not_flagged(self, tmp_path):
        # 199 == 0xC7 but written in decimal it is an unrelated constant.
        files = {
            "core/wire.py": "FRAME_MAGIC = 0xC7\n",
            "core/sizes.py": "LIMIT = 199\n",
        }
        report = lint_files(tmp_path, files, select={"RPL005"})
        assert report.findings == []


# --------------------------------------------------------------- RPL006


class IncompleteBackend(Backend):
    """Misses every abstract primitive."""

    name = "lint-incomplete"


class WrongSignatureBackend(PureBackend):
    """Renames a contract parameter."""

    name = "lint-wrong-signature"

    def apply(self, item, delta):  # 'item' should be 'key'
        return super().apply(item, delta)


class ExtraRequiredParamBackend(PureBackend):
    name = "lint-extra-param"

    def gather_cells(self, indices, extra):  # extra has no default
        return super().gather_cells(indices)


class CompatibleBackend(PureBackend):
    """Extends the contract compatibly: extra defaulted parameter."""

    name = "lint-compatible"

    def gather_cells(self, indices, validate=False):
        return super().gather_cells(indices)


class TestBackendContract:
    def lint_with(self, tmp_path, registry):
        return lint_files(
            tmp_path,
            {"iblt/backends/base.py": "class Backend:\n    pass\n"},
            select={"RPL006"},
            registry=registry,
        )

    def test_fires_on_unimplemented_abstracts(self, tmp_path):
        report = self.lint_with(tmp_path, {"bad": IncompleteBackend})
        assert "RPL006" in codes_of(report)
        assert any(
            "abstract primitives left unimplemented" in finding.message
            for finding in report.findings
        )

    def test_fires_on_renamed_parameter(self, tmp_path):
        report = self.lint_with(tmp_path, {"bad": WrongSignatureBackend})
        assert any(
            "apply() signature incompatible" in finding.message
            for finding in report.findings
        )

    def test_fires_on_extra_required_parameter(self, tmp_path):
        report = self.lint_with(tmp_path, {"bad": ExtraRequiredParamBackend})
        assert any(
            "gather_cells() signature incompatible" in finding.message
            for finding in report.findings
        )

    def test_silent_on_reference_and_compatible_backends(self, tmp_path):
        report = self.lint_with(
            tmp_path, {"pure": PureBackend, "ok": CompatibleBackend}
        )
        assert report.findings == []

    def test_real_registry_is_clean(self, tmp_path):
        from repro.iblt.backends import registered_backends

        report = self.lint_with(tmp_path, registered_backends())
        assert report.findings == []

    def test_skips_live_inspection_on_foreign_trees(self, tmp_path):
        # No registry injected + fixture root => the rule must not attribute
        # real-registry classes to a tree they are not part of.
        report = lint_files(
            tmp_path, {"iblt/mod.py": "x = 1\n"}, select={"RPL006"}
        )
        assert report.findings == []


# --------------------------------------------------------------- RPL007


class TestExecutorSafety:
    def test_fires_on_global_declaration(self, tmp_path):
        source = (
            "COUNTER = 0\n"
            "def task(args):\n"
            "    global COUNTER\n"
            "    COUNTER += 1\n"
            "    return args\n"
            "def run(executor, tasks):\n"
            "    return executor.map(task, tasks)\n"
        )
        report = lint_files(
            tmp_path, {"core/sketch.py": source}, select={"RPL007"}
        )
        assert "RPL007" in codes_of(report)

    def test_fires_on_mutating_module_global(self, tmp_path):
        source = (
            "RESULTS = []\n"
            "CACHE = {}\n"
            "def task(args):\n"
            "    RESULTS.append(args)\n"
            "    CACHE[args] = 1\n"
            "    return args\n"
            "def run(executor, tasks):\n"
            "    return executor.map(task, tasks)\n"
        )
        report = lint_files(
            tmp_path, {"core/sketch.py": source}, select={"RPL007"}
        )
        messages = [finding.message for finding in report.findings]
        assert any(".append()" in message for message in messages)
        assert any("writes through non-local name 'CACHE'" in m for m in messages)

    def test_fires_on_submitted_lambda_closure_mutation(self, tmp_path):
        source = (
            "def run(executor, tasks):\n"
            "    seen = []\n"
            "    return executor.submit(lambda t: seen.append(t), tasks)\n"
        )
        report = lint_files(
            tmp_path, {"core/sketch.py": source}, select={"RPL007"}
        )
        assert "RPL007" in codes_of(report)

    def test_silent_on_pure_task(self, tmp_path):
        source = (
            "LIMIT = 4\n"
            "def task(args):\n"
            "    config, points = args\n"
            "    out = []\n"
            "    for point in points:\n"
            "        out.append((config, point, LIMIT))\n"
            "    return out\n"
            "def run(executor, tasks):\n"
            "    return executor.map(task, tasks)\n"
        )
        report = lint_files(
            tmp_path, {"core/sketch.py": source}, select={"RPL007"}
        )
        assert report.findings == []

    def test_silent_outside_the_encode_module(self, tmp_path):
        source = (
            "RESULTS = []\n"
            "def task(args):\n"
            "    RESULTS.append(args)\n"
            "def run(executor, tasks):\n"
            "    return executor.map(task, tasks)\n"
        )
        report = lint_files(
            tmp_path, {"serve/service.py": source}, select={"RPL007"}
        )
        assert report.findings == []

    def test_unsubmitted_function_not_analysed(self, tmp_path):
        source = (
            "RESULTS = []\n"
            "def helper(x):\n"
            "    RESULTS.append(x)\n"  # never submitted to an executor
        )
        report = lint_files(
            tmp_path, {"core/sketch.py": source}, select={"RPL007"}
        )
        assert report.findings == []

    def test_real_engine_tasks_are_safe(self):
        import repro

        from pathlib import Path

        report = run_lint(
            Path(repro.__file__).parent, select={"RPL007"}
        )
        assert report.findings == []


# --------------------------------------------------------------- RPL008


class TestStoreWriteDiscipline:
    def test_fires_on_bare_open_in_store(self, tmp_path):
        source = (
            "def save(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(payload)\n"
        )
        report = lint_files(
            tmp_path, {"store/sidecar.py": source}, select={"RPL008"}
        )
        assert codes_of(report) == ["RPL008"]
        assert "storage backend" in report.findings[0].message

    def test_fires_on_os_file_op_outside_seam(self, tmp_path):
        source = (
            "import os\n"
            "def rotate(a, b):\n"
            "    os.replace(a, b)\n"
            "def drop(path):\n"
            "    os.unlink(path)\n"
        )
        report = lint_files(
            tmp_path, {"store/wal.py": source}, select={"RPL008"}
        )
        assert codes_of(report) == ["RPL008"]
        assert len(report.findings) == 2

    def test_fires_on_shutil_in_store(self, tmp_path):
        source = (
            "import shutil\n"
            "def clone(src, dst):\n"
            "    shutil.copyfile(src, dst)\n"
        )
        report = lint_files(
            tmp_path, {"store/snapshot.py": source}, select={"RPL008"}
        )
        assert codes_of(report) == ["RPL008"]

    def test_fires_on_replace_outside_publish_in_seam(self, tmp_path):
        source = (
            "import os\n"
            "class Backend:\n"
            "    def publish(self, tmp, final):\n"
            "        os.replace(tmp, final)\n"
            "    def sneaky(self, tmp, final):\n"
            "        os.rename(tmp, final)\n"
        )
        report = lint_files(
            tmp_path, {"store/storage.py": source}, select={"RPL008"}
        )
        assert codes_of(report) == ["RPL008"]
        assert len(report.findings) == 1
        assert "publish" in report.findings[0].message
        assert report.findings[0].line == 6

    def test_silent_on_seam_module_discipline(self, tmp_path):
        source = (
            "import os\n"
            "class Backend:\n"
            "    def read(self, path):\n"
            "        with open(path, 'rb') as handle:\n"
            "            return handle.read()\n"
            "    def fsync(self, path):\n"
            "        with open(path, 'rb') as handle:\n"
            "            os.fsync(handle.fileno())\n"
            "    def publish(self, tmp, final):\n"
            "        os.replace(tmp, final)\n"
        )
        report = lint_files(
            tmp_path, {"store/storage.py": source}, select={"RPL008"}
        )
        assert report.findings == []

    def test_silent_outside_store_scope(self, tmp_path):
        source = (
            "import os\n"
            "def rotate(a, b):\n"
            "    os.replace(a, b)\n"
        )
        report = lint_files(
            tmp_path, {"workloads/io.py": source}, select={"RPL008"}
        )
        assert report.findings == []

    def test_real_store_package_is_clean(self):
        from pathlib import Path

        import repro

        report = run_lint(
            Path(repro.__file__).parent, select={"RPL008"}
        )
        assert report.findings == []


# ------------------------------------------------------------- waivers


class TestWaiverEngine:
    def test_inline_waiver_suppresses_finding(self, tmp_path):
        source = (
            "def f():\n"
            "    raise ValueError('x')"
            "  # repro-lint: waive[RPL003] reason=fixture exception\n"
        )
        report = lint_files(
            tmp_path, {"iblt/mod.py": source}, select={"RPL003"}
        )
        assert report.findings == []
        assert report.waivers_used == 1

    def test_standalone_waiver_targets_next_code_line(self, tmp_path):
        source = (
            "def f():\n"
            "    # repro-lint: waive[RPL003] reason=fixture exception\n"
            "    # an unrelated comment between waiver and target is fine\n"
            "    raise ValueError('x')\n"
        )
        report = lint_files(
            tmp_path, {"iblt/mod.py": source}, select={"RPL003"}
        )
        assert report.findings == []
        assert report.waivers_used == 1

    def test_waiver_without_reason_is_a_finding(self, tmp_path):
        source = (
            "def f():\n"
            "    raise ValueError('x')  # repro-lint: waive[RPL003]\n"
        )
        report = lint_files(
            tmp_path, {"iblt/mod.py": source}, select={"RPL003"}
        )
        codes = codes_of(report)
        # The reasonless waiver does not suppress, and is itself reported.
        assert codes == ["RPL003", "RPL900"]
        assert any("no reason" in f.message for f in report.findings)

    def test_empty_reason_is_a_finding(self, tmp_path):
        source = (
            "def f():\n"
            "    raise ValueError('x')  # repro-lint: waive[RPL003] reason=\n"
        )
        report = lint_files(
            tmp_path, {"iblt/mod.py": source}, select={"RPL003"}
        )
        assert "RPL900" in codes_of(report)

    def test_unknown_code_is_a_finding(self, tmp_path):
        source = "x = 1  # repro-lint: waive[RPL999] reason=no such rule\n"
        report = lint_files(tmp_path, {"iblt/mod.py": source})
        assert codes_of(report) == ["RPL900"]
        assert "unknown rule code" in report.findings[0].message

    def test_unparsable_waiver_is_a_finding(self, tmp_path):
        source = "x = 1  # repro-lint: please ignore this line\n"
        report = lint_files(tmp_path, {"iblt/mod.py": source})
        assert codes_of(report) == ["RPL900"]

    def test_stale_waiver_is_a_finding(self, tmp_path):
        source = (
            "def f():\n"
            "    return 1  # repro-lint: waive[RPL003] reason=nothing here\n"
        )
        report = lint_files(
            tmp_path, {"iblt/mod.py": source}, select={"RPL003"}
        )
        assert codes_of(report) == ["RPL901"]
        assert "stale waiver" in report.findings[0].message

    def test_waiver_only_covers_its_own_code(self, tmp_path):
        source = (
            "def f():\n"
            "    raise ValueError('x')"
            "  # repro-lint: waive[RPL001] reason=wrong rule code\n"
        )
        report = lint_files(
            tmp_path, {"iblt/mod.py": source}, select={"RPL001", "RPL003"}
        )
        codes = codes_of(report)
        assert "RPL003" in codes  # finding survives
        assert "RPL901" in codes  # and the mismatched waiver is stale

    def test_deselected_rule_waivers_not_reported_stale(self, tmp_path):
        source = (
            "def f():\n"
            "    raise ValueError('x')"
            "  # repro-lint: waive[RPL003] reason=fixture exception\n"
        )
        # RPL003 never ran, so its waiver must be left alone.
        report = lint_files(
            tmp_path, {"iblt/mod.py": source}, select={"RPL001"}
        )
        assert report.findings == []

    def test_waiver_marker_inside_string_is_ignored(self, tmp_path):
        source = 'TEXT = "# repro-lint: waive[RPL003] reason=not a comment"\n'
        report = lint_files(tmp_path, {"iblt/mod.py": source})
        assert report.findings == []


# ------------------------------------------------------------- engine


class TestEngine:
    def test_unknown_select_code_raises_config_error(self, tmp_path):
        root = write_tree(tmp_path / "pkg", {"mod.py": "x = 1\n"})
        with pytest.raises(ConfigError):
            run_lint(root, select={"RPL777"})

    def test_missing_root_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            run_lint(tmp_path / "nope")

    def test_unparsable_file_is_a_finding_not_a_crash(self, tmp_path):
        report = lint_files(tmp_path, {"iblt/broken.py": "def f(:\n"})
        assert codes_of(report) == ["RPL902"]

    def test_src_style_root_resolves_to_package(self, tmp_path):
        outer = tmp_path / "src"
        write_tree(outer / "repro", {"session/m.py": "import asyncio\n"})
        report = run_lint(outer, select={"RPL001"})
        assert codes_of(report) == ["RPL001"]
        # relpaths are package-relative, so scopes matched under src/.
        assert report.findings[0].path == "session/m.py"
