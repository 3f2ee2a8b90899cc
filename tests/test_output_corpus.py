"""scripts/output_corpus.py at a small n: its manifest covers every file it
writes, no output names the directory it was written to, and two runs write
the same corpus."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _write_corpus(out):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "output_corpus.py"),
                    "--out", str(out), "--n", "200"],
                   env=dict(os.environ, PYTHONPATH=path), check=True)
    return (out / "MANIFEST.sha256").read_text()


def test_output_corpus_is_covered_by_its_manifest_and_repeats(tmp_path):
    out = tmp_path / "first"
    manifest = _write_corpus(out)
    assert _write_corpus(tmp_path / "second") == manifest
    entries = [line.split("  ", 1) for line in manifest.splitlines()]
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                   if p.is_file() and p.name != "MANIFEST.sha256")
    assert [name for _, name in entries] == files
    for digest, name in entries:
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
        assert str(tmp_path).encode() not in data, name
    # every class generates on both bases, and the two error logs hold
    # their exit codes
    generated = [name for name in files
                 if name.startswith("cli/") and name.endswith("/generate.log")]
    assert len(generated) == 12
    assert all((out / name).read_text().startswith("exit 0\n")
               for name in generated)
    assert (out / "errors/usage.log").read_text().startswith("exit 1\n")
    assert (out / "errors/data.log").read_text().startswith("exit 2\n")
