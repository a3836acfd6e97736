#!/usr/bin/env python3
"""Project-invariant linter: repo rules the compiler cannot check.

Rules (each scoped to src/ unless noted):

  failpoints     Every ADPM_FAULT_POINT("name") in src/ is documented in
                 docs/FAILPOINTS.md, and every name documented there still
                 exists in src/ (two-way check).
  canonical-json util::json::serialize is the canonical-JSON producer; only
                 the allowlisted wire/persistence files may call it, so no
                 module grows a second, subtly different encoder.
  raw-io         Durability and stdio primitives (fsync/fwrite/fopen/
                 truncate/...) appear only in the WAL, the salvage path,
                 and net/ — everything else must go through those layers.
  std-mutex      std::mutex-family types appear only inside
                 util/thread_annotations.hpp; raw primitives are invisible
                 to Clang's thread-safety analysis.
  number-codec   strtod/stod/snprintf appear only in the shared double
                 codec (util/number) and the allowlisted non-double users,
                 so no module grows a second double encoder or decoder
                 that could render the same state differently.

Matching happens on comment- and string-stripped source (except the
failpoint scan, which reads names out of string literals), so prose
mentioning "std::mutex" or an error message containing "fsync" does not
trip a rule.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FAILPOINT_DOC = REPO / "docs" / "FAILPOINTS.md"

# -- rule configuration -------------------------------------------------------

# Files allowed to produce canonical JSON (util::json::serialize callers).
# dpm/operation_io owns operation encoding; wal persists records; gen/params
# emits run manifests; net frames results/notifications onto the wire.
CANONICAL_JSON_ALLOW = {
    "dpm/operation_io.cpp",
    "gen/params.cpp",
    "net/client.cpp",
    "net/reactor.cpp",
    "net/server.cpp",
    "service/wal.cpp",
}

# Durability/stdio tokens and the files allowed to use them.  service/wal.cpp
# owns the append/flush/fsync/rollback path; service/session.cpp owns salvage
# truncation; net/ owns socket I/O.
RAW_IO_TOKENS = (
    "fsync",
    "fdatasync",
    "fwrite",
    "fflush",
    "fopen",
    "fclose",
    "fileno",
    "truncate",
    "resize_file",
)
RAW_IO_ALLOW_FILES = {"service/wal.cpp", "service/session.cpp"}
RAW_IO_ALLOW_DIRS = ("net/",)

# std locking primitives; only the annotated wrappers may touch them.
STD_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable"
    r"(?:_any)?)\b"
)
STD_MUTEX_ALLOW = {"util/thread_annotations.hpp"}

# Text <-> number primitives and the files allowed to use them: the double
# codec, plus users that never encode a double for a machine to read back
# (hex digests, \u escapes, report formatting, failpoint specs).
NUMBER_CODEC_RE = re.compile(r"(?:\bstd::|::)?\b(?:strtod|stod|snprintf)\s*\(")
NUMBER_CODEC_ALLOW = {
    "util/number.cpp",
    "util/strings.cpp",
    "util/json.cpp",
    "gen/stats.cpp",
    "util/fault.cpp",
}

FAULT_POINT_RE = re.compile(r'ADPM_FAULT_POINT\(\s*"([^"]+)"\s*\)')
# Names in the FAILPOINTS.md table: a backticked name in the first column.
DOC_NAME_RE = re.compile(r"^\|\s*`([a-z]+\.[a-z_]+)`", re.MULTILINE)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            i = n if end == -1 else end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            stop = n if end == -1 else end + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:stop]))
            i = stop
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * max(0, j - i - 1))
            if j < n:
                out.append(quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def source_files():
    return sorted(
        p
        for p in SRC.rglob("*")
        if p.suffix in {".cpp", ".hpp", ".h", ".cc"} and p.is_file()
    )


def rel(p: Path) -> str:
    return p.relative_to(SRC).as_posix()


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_failpoints(files) -> list[str]:
    findings = []
    in_src: dict[str, str] = {}
    for p in files:
        text = p.read_text()
        for m in FAULT_POINT_RE.finditer(text):
            in_src.setdefault(m.group(1), f"{rel(p)}:{line_of(text, m.start())}")
    if not FAILPOINT_DOC.is_file():
        return [f"failpoints: {FAILPOINT_DOC.relative_to(REPO)} is missing"]
    in_doc = set(DOC_NAME_RE.findall(FAILPOINT_DOC.read_text()))
    for name in sorted(set(in_src) - in_doc):
        findings.append(
            f"failpoints: src/{in_src[name]}: ADPM_FAULT_POINT(\"{name}\") "
            f"is not documented in docs/FAILPOINTS.md"
        )
    for name in sorted(in_doc - set(in_src)):
        findings.append(
            f"failpoints: docs/FAILPOINTS.md lists `{name}` but no such "
            f"failpoint exists in src/"
        )
    return findings


def check_token_rule(files, rule, pattern, allowed) -> list[str]:
    findings = []
    for p in files:
        name = rel(p)
        if allowed(name):
            continue
        stripped = strip_comments_and_strings(p.read_text())
        for m in pattern.finditer(stripped):
            findings.append(
                f"{rule}: src/{name}:{line_of(stripped, m.start())}: "
                f"'{m.group(0)}' is only allowed in "
                f"{allowed.__doc__}"
            )
    return findings


def main() -> int:
    if not SRC.is_dir():
        print(f"lint_invariants: {SRC} not found", file=sys.stderr)
        return 2
    files = source_files()

    def json_allowed(name: str) -> bool:
        """the canonical JSON producer allowlist (see CANONICAL_JSON_ALLOW)"""
        return name in CANONICAL_JSON_ALLOW

    def raw_io_allowed(name: str) -> bool:
        """service/wal.cpp, service/session.cpp (salvage), and net/"""
        return name in RAW_IO_ALLOW_FILES or name.startswith(RAW_IO_ALLOW_DIRS)

    def number_allowed(name: str) -> bool:
        """util/number.cpp and the non-double users in NUMBER_CODEC_ALLOW"""
        return name in NUMBER_CODEC_ALLOW

    def mutex_allowed(name: str) -> bool:
        """util/thread_annotations.hpp (the annotated wrappers)"""
        return name in STD_MUTEX_ALLOW

    raw_io_re = re.compile(
        r"(?:\bstd::|::)?\b(?:" + "|".join(RAW_IO_TOKENS) + r")\s*\("
    )
    json_re = re.compile(r"\bjson::serialize\s*\(")

    findings = []
    findings += check_failpoints(files)
    findings += check_token_rule(files, "canonical-json", json_re, json_allowed)
    findings += check_token_rule(files, "raw-io", raw_io_re, raw_io_allowed)
    findings += check_token_rule(files, "std-mutex", STD_MUTEX_RE, mutex_allowed)
    findings += check_token_rule(
        files, "number-codec", NUMBER_CODEC_RE, number_allowed
    )

    for f in findings:
        print(f)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: OK ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
