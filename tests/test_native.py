"""The native layer: the kernel table, the build directory and failed builds.

:mod:`repro.native` builds every C kernel from one table with one
command. These tests check that the table and the ``.c`` files agree,
that importing builds nothing, where builds land, and that a compiler
that fails says so. The kernels' results are checked by the engine
equivalence suites.
"""

import ctypes
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
import repro.native as native
from tests.native_build_worker import PROBE_SOURCE

needs_compiler = pytest.mark.skipif(
    native._compiler() is None, reason="no C compiler"
)


def test_table_and_source_files_name_the_same_kernels():
    sources = [source for source, _ in native.KERNELS.values()]
    package = Path(native.__file__).parent
    assert sorted(sources) == sorted(p.name for p in package.glob("*.c"))


def test_importing_repro_and_every_engine_module_builds_no_kernel(tmp_path):
    cache = tmp_path / "cache"
    code = (
        "import importlib, pkgutil\n"
        "import repro\n"
        "from repro import native\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not module.name.endswith('__main__'):\n"
        "        importlib.import_module(module.name)\n"
        "assert native._CACHED == {}, native._CACHED\n"
    )
    env = dict(os.environ, REPRO_NATIVE_CACHE=str(cache))
    env.pop("REPRO_DISABLE_NATIVE", None)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    assert not cache.exists()


@needs_compiler
def test_default_build_dir_is_per_user_and_reused_across_processes(
    monkeypatch, tmp_path
):
    home = tmp_path / "home"
    monkeypatch.delenv("REPRO_NATIVE_CACHE", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    monkeypatch.setenv("HOME", str(home))
    path = native.compile_cached(PROBE_SOURCE, "repro_probe")
    assert path is not None
    assert path.parent == home / ".cache" / "repro" / "native"
    package = Path(repro.__file__).parent
    assert not list(package.rglob("repro_probe-*"))
    before = path.stat()
    code = (
        "from repro.native import compile_cached\n"
        f"print(compile_cached({PROBE_SOURCE!r}, 'repro_probe'))\n"
    )
    again = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True,
    ).stdout.strip()
    assert Path(again) == path
    after = path.stat()
    # Not compiled again: a rebuild would replace the file.
    assert (after.st_ino, after.st_mtime_ns) == (
        before.st_ino, before.st_mtime_ns
    )
    assert sorted(p.name for p in path.parent.iterdir()) == sorted(
        [path.name, path.with_suffix(".c").name]
    )


@needs_compiler
def test_unusable_build_dir_falls_back_to_one_temporary_dir(
    monkeypatch, tmp_path
):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.delenv("REPRO_NATIVE_CACHE", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    monkeypatch.setenv("HOME", str(blocker / "home"))
    first = native.compile_cached(PROBE_SOURCE, "repro_probe")
    second = native.compile_cached(
        PROBE_SOURCE.replace("42", "43"), "repro_probe"
    )
    assert first is not None and second is not None and first != second
    assert first.parent == second.parent
    assert tmp_path not in first.parents
    assert Path(repro.__file__).parent not in first.parents
    assert ctypes.CDLL(str(second)).repro_probe() == 43


@needs_compiler
def test_failed_build_warns_with_the_compiler_message(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    broken = PROBE_SOURCE + "this is not C;\n"
    with pytest.warns(RuntimeWarning, match=r"repro_broken.*error") as record:
        assert native.compile_cached(broken, "repro_broken") is None
    assert len(record) == 1
    assert not list(tmp_path.glob("*.so"))


def test_missing_compiler_does_not_warn(monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.compile_cached(PROBE_SOURCE, "repro_probe") is None
