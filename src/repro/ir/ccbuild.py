"""Build, cache and load the C tier's shared objects.

Objects are built lazily, on the first segment that needs one, with the
system C compiler (``gcc -O2 -shared -fPIC``).  They are cached outside
the checkout, under ``$XDG_CACHE_HOME/repro/cc`` (default
``~/.cache/repro/cc``), keyed by the SHA-256 of the source, the
compiler's version line and the flags:

* a build goes to a private temporary directory inside the cache and is
  published with :func:`os.replace`, so a reader — another process
  racing the same cold build included — only ever sees a complete file;
* before loading, the object must be a complete ELF file (every program
  and section header table and every segment within the file — a
  truncated object is rebuilt), owned by this user and not group- or
  world-writable, in a cache directory with the same ownership and mode;
  a cache directory failing that is refused and the tier stays off;
* the compiler's version line is cached too (keyed by the compiler's
  path, size and mtime), so a warm hit spawns no subprocess;
* the loaded object must name the key it was built for, and its port of
  the Mersenne Twister must match :class:`random.Random` on a few draws.

Without a compiler, or when any of this fails, :func:`load` returns
``None`` and the numpy loops run instead.  :func:`provenance` reports
the tier in use for :mod:`repro.telemetry.provenance`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import stat
import struct
import subprocess
import tempfile
from pathlib import Path
from random import Random

__all__ = ["FLAGS", "find_compiler", "cache_dir", "load", "provenance"]

FLAGS = ("-O2", "-shared", "-fPIC")

#: ``(compiler, source)`` → what :func:`load` answered for it
#: (``None``: no object in this process).
_BY_SOURCE: dict[tuple, "ctypes.CDLL | None"] = {}
#: What the tier did in this process, for provenance.
_STATUS: dict = {"compiler": None, "objects": {}, "refused": None}


@functools.cache
def find_compiler() -> str | None:
    """The C compiler's path, or ``None`` when there is none (looked up
    once per process)."""
    return shutil.which("gcc")


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro/cc``, or ``~/.cache/repro/cc``."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "cc"


def _private(path: Path, kind) -> bool:
    """Owned by this user, not group/world-writable, of the right kind."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    return (kind(st.st_mode) and st.st_uid == os.geteuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _open_cache() -> Path | None:
    path = cache_dir()
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return None
    return path if _private(path, stat.S_ISDIR) else None


def _compiler_version(compiler: str, cache: Path) -> str | None:
    """First line of ``compiler --version``, cached by path/size/mtime."""
    try:
        st = os.stat(compiler)
    except OSError:
        return None
    tag = hashlib.sha256(
        f"{os.path.realpath(compiler)}\0{st.st_size}\0{st.st_mtime_ns}".encode()
    ).hexdigest()[:32]
    memo = cache / f"compiler-{tag}.txt"
    if _private(memo, stat.S_ISREG):
        version = memo.read_text().strip()
        if version:
            return version
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=60, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    version = out.splitlines()[0].strip() if out.strip() else None
    if version:
        _publish_text(memo, version + "\n", cache)
    return version


def _publish_text(path: Path, text: str, cache: Path) -> None:
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _complete_elf(path: Path) -> bool:
    """Whether ``path`` is a whole 64-bit little-endian ELF object."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return False
    if len(data) < 64 or data[:4] != b"\x7fELF" or data[4] != 2 or data[5] != 1:
        return False
    phoff, shoff = struct.unpack_from("<QQ", data, 0x20)
    phentsize, phnum, shentsize, shnum = struct.unpack_from("<HHHH", data, 0x36)
    need = max(phoff + phnum * phentsize, shoff + shnum * shentsize)
    if len(data) < need:
        return False
    for i in range(phnum):
        base = phoff + i * phentsize
        (offset,) = struct.unpack_from("<Q", data, base + 8)
        (filesz,) = struct.unpack_from("<Q", data, base + 32)
        if offset + filesz > len(data):
            return False
    return True


def _build(compiler: str, source: str, target: Path, cache: Path) -> bool:
    workdir = tempfile.mkdtemp(dir=cache, prefix=".build-")
    try:
        src = Path(workdir) / (target.stem + ".c")
        obj = Path(workdir) / target.name
        src.write_text(source)
        proc = subprocess.run([compiler, *FLAGS, "-o", str(obj), str(src)],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0 or not _complete_elf(obj):
            return False
        os.chmod(obj, 0o700)
        os.replace(obj, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _mt_matches(lib) -> bool:
    """The object's Twister port against :class:`random.Random`."""
    import numpy as np

    randbelow, rand = lib.repro_mt_randbelow, lib.repro_mt_random
    randbelow.restype = ctypes.c_int64
    rand.restype = ctypes.c_double
    ref = Random(20240917)
    _, internal, _ = ref.getstate()
    mt = np.array(internal[:-1], dtype=np.uint32)
    pos = ctypes.c_int64(internal[-1])
    words, ptr = mt.ctypes.data_as(ctypes.c_void_p), ctypes.byref(pos)
    for bound in (1, 2, 3, 7, 64, 1000, 2**31 + 1):
        if randbelow(words, ptr, ctypes.c_int64(bound)) != ref.randrange(bound):
            return False
    return all(rand(words, ptr) == ref.random() for _ in range(5))


def load(source: str):
    """The shared object of ``source`` (built if needed), or ``None``."""
    compiler = find_compiler()
    if compiler is None:
        return None
    memo = (compiler, source)
    if memo in _BY_SOURCE:
        return _BY_SOURCE[memo]
    _BY_SOURCE[memo] = lib = _load(compiler, source)
    return lib


def _load(compiler: str, source: str):
    cache = _open_cache()
    if cache is None:
        _STATUS["refused"] = str(cache_dir())
        return None
    version = _compiler_version(compiler, cache)
    if version is None:
        return None
    key = hashlib.sha256(
        "\0".join((source, version, " ".join(FLAGS))).encode()
    ).hexdigest()
    _STATUS["compiler"] = version
    full = source + f'\nconst char repro_cc_key[] = "{key}";\n'
    target = cache / f"{key}.so"
    lib = None
    for how in ("hit", "build"):
        if how == "build" and not _build(compiler, full, target, cache):
            break
        if not (_complete_elf(target) and _private(target, stat.S_ISREG)):
            continue
        try:
            lib = ctypes.CDLL(str(target))
            named = (ctypes.c_char * 65).in_dll(lib, "repro_cc_key").value
        except (OSError, ValueError):
            lib = None
            continue
        if named.decode() == key and _mt_matches(lib):
            _STATUS["objects"][key] = how
            break
        lib = None
    return lib


def provenance() -> dict:
    """The compiled tier this process used: the compiler's version line
    and, per object, whether it was a cache hit or a build."""
    objects = _STATUS["objects"]
    return {
        "compiler": _STATUS["compiler"],
        "objects": len(objects),
        "cache": sorted(set(objects.values())),
        "refused": _STATUS["refused"],
    }
