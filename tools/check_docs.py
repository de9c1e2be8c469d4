#!/usr/bin/env python3
"""Documentation consistency checker (stdlib only; CI `docs` job).

Four classes of rot this catches:

 1. Relative markdown links whose target file no longer exists
    (`[text](docs/SERVING.md)`, `[x](../README.md#anchor)`), in every
    tracked *.md file of the repo.
 2. Binary names the docs refer to (`bench_*`, `elkc`, and the
    example programs) whose source file is gone — every such name
    must correspond to a real target: bench/<name>.cc,
    tools/<name>.cc, or examples/<name>.cc. CMake globs those
    directories, so source existence is target existence; the CI job
    additionally builds the listed names (`--list-binaries`) to prove
    they compile.
 3. Command-line flags the user docs name (`--kv-budget`, `--jobs`,
    ...) that no driver actually parses: every `--flag` token in
    README.md, ROADMAP.md, and docs/*.md must appear as a string
    literal in tools/*.{cc,py}, bench/*.{cc,h}, examples/*.cc, or
    elkbench/run.py (the repository benchmark's entry point, only
    read), except for a small allowlist of external tools' flags (ctest,
    cmake, google-benchmark). This is what stops the docs from
    drifting when a driver renames a flag.
 4. TODO/FIXME markers inside docs/*.md — user docs must not ship
    construction debris.
 5. Report-column rot: the `ServingReport` / `ClusterReport` field
    tables in docs/SERVING.md, docs/CLUSTER.md, and docs/TENANCY.md
    name every field in their first cell (backticked, slash-compressed
    forms like `mean/p50/p95/p99/max_latency` allowed). Each expanded
    field name must appear as a whole word in src/runtime/*.cc — the
    summary()/serialize_bits() implementations — so renaming or
    dropping a report field without updating the docs fails CI.

Usage:
    tools/check_docs.py              # check, exit 1 on any failure
    tools/check_docs.py --list-binaries   # print doc-named binaries
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — excluding images and absolute URLs; target may
# carry a #fragment.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
# Binary-ish tokens: bench_* always; other names are checked against
# the known binary stems (so prose words never false-positive).
TOKEN_RE = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")
# A documented command-line flag: --word(-word)*, not part of a
# longer run of dashes (markdown rules / table borders).
DOC_FLAG_RE = re.compile(r"(?<![-\w])--[a-z][a-z0-9_-]*")
# A flag string literal in driver source (same charset as
# DOC_FLAG_RE, or an underscore-flag could never resolve).
SRC_FLAG_RE = re.compile(r'"(--[a-z][a-z0-9_-]*)"')
# Flags of tools the docs legitimately invoke but this repo does not
# parse itself.
EXTERNAL_FLAGS = {
    "--output-on-failure",  # ctest
    "--build",              # cmake
    "--target",             # cmake
    "--benchmark_filter",   # google-benchmark (bench_micro)
    "--list-binaries",      # this script
}
# Root-level docs whose --flag mentions are checked next to docs/*.md
# (user docs; PAPERS/SNIPPETS are reference dumps of external material
# and ISSUE/CHANGES are process logs).
FLAG_CHECKED_DOCS = ("README.md", "ROADMAP.md")
MARKER_RE = re.compile(r"\b(TODO|FIXME)\b")
# Docs whose markdown tables document report fields in their first
# cell; every backticked identifier there must resolve to a field
# used by src/runtime/*.cc.
REPORT_TABLE_DOCS = ("SERVING.md", "CLUSTER.md", "TENANCY.md")
FIELD_RE = re.compile(r"`([A-Za-z][A-Za-z0-9_/]*)`")


def markdown_files():
    out = []
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [
            d
            for d in dirs
            if not d.startswith(".") and not d.startswith("build")
        ]
        for name in files:
            if name.endswith(".md"):
                out.append(os.path.join(root, name))
    return sorted(out)


def known_binaries():
    """Stem -> source path for every buildable driver."""
    stems = {}
    for sub in ("bench", "tools", "examples"):
        directory = os.path.join(REPO, sub)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            if name.endswith(".cc"):
                stems[name[: -len(".cc")]] = os.path.join(sub, name)
    return stems


def known_flags():
    """Every --flag string literal a driver parses."""
    flags = set()
    sources = []
    for sub, exts in (
        ("tools", (".cc", ".py")),
        ("bench", (".cc", ".h")),
        ("examples", (".cc",)),
    ):
        directory = os.path.join(REPO, sub)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            if name.endswith(exts):
                sources.append(os.path.join(directory, name))
    bench_entry = os.path.join(REPO, "elkbench", "run.py")
    if os.path.isfile(bench_entry):
        sources.append(bench_entry)
    for src in sources:
        with open(src, encoding="utf-8") as f:
            flags |= set(SRC_FLAG_RE.findall(f.read()))
    return flags


def runtime_source():
    """Concatenated src/runtime/*.cc — where every report field is
    consumed by summary()/serialize_bits()."""
    texts = []
    directory = os.path.join(REPO, "src", "runtime")
    for name in sorted(os.listdir(directory)):
        if name.endswith(".cc"):
            with open(os.path.join(directory, name),
                      encoding="utf-8") as f:
                texts.append(f.read())
    return "\n".join(texts)


def expand_field(token):
    """'mean/p50/p95/p99/max_latency' -> its five field names; a
    token without '/' is already a field name."""
    if "/" not in token:
        return [token]
    parts = token.split("/")
    last = parts[-1]
    if "_" not in last:
        return parts
    _, suffix = last.split("_", 1)
    return [p + "_" + suffix for p in parts[:-1]] + [last]


def check_report_fields(md_path, runtime_src, errors):
    """Every backticked identifier in a markdown table row's first
    cell must appear (whole-word) in src/runtime/*.cc."""
    rel = os.path.relpath(md_path, REPO)
    with open(md_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            stripped = line.lstrip()
            if not stripped.startswith("|"):
                continue
            cells = stripped.split("|")
            if len(cells) < 3:
                continue
            for token in FIELD_RE.findall(cells[1]):
                for field in expand_field(token):
                    if re.search(r"\b%s\b" % re.escape(field),
                                 runtime_src):
                        continue
                    errors.append(
                        f"{rel}:{lineno}: documents report column "
                        f"'{field}' but src/runtime/*.cc never "
                        "mentions it"
                    )


def flag_checked(md_path):
    """User docs whose --flag mentions must resolve to parsed flags."""
    rel = os.path.relpath(md_path, REPO)
    return rel in FLAG_CHECKED_DOCS or rel.startswith("docs" + os.sep)


def check_flags(md_path, flags, errors):
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    rel = os.path.relpath(md_path, REPO)
    for flag in sorted(set(DOC_FLAG_RE.findall(text))):
        if flag in flags or flag in EXTERNAL_FLAGS:
            continue
        errors.append(
            f"{rel}: names flag '{flag}' but no driver "
            "(tools/*.{cc,py}, bench/*.{cc,h}, examples/*.cc, "
            "elkbench/run.py) parses it"
        )


def check_markers(md_path, errors):
    rel = os.path.relpath(md_path, REPO)
    with open(md_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            match = MARKER_RE.search(line)
            if match:
                errors.append(
                    f"{rel}:{lineno}: contains a {match.group(0)} marker"
                )


def check_links(md_path, errors):
    base = os.path.dirname(md_path)
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if re.match(r"^[a-z]+:", target) or target.startswith("#"):
            continue  # URL or in-page anchor
        path = target.split("#", 1)[0]
        resolved = os.path.normpath(os.path.join(base, path))
        if not os.path.exists(resolved):
            rel = os.path.relpath(md_path, REPO)
            errors.append(f"{rel}: broken link -> {target}")


def doc_binaries(md_path, binaries, errors):
    """Names of binaries this doc mentions; bench_* must resolve."""
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    named = set()
    for match in TOKEN_RE.finditer(text):
        token = match.group(0)
        after = text[match.end() : match.end() + 1]
        if after == "*" or token.endswith("_"):
            continue  # a glob like bench_* / bench_fig*, not a name
        if text[match.start() - 1 : match.start()] == ".":
            continue  # a dot-directory like .bench_build, not a name
        if token in binaries:
            named.add(token)
        elif token.startswith("bench_"):
            rel = os.path.relpath(md_path, REPO)
            errors.append(
                f"{rel}: names '{token}' but bench/{token}.cc "
                "does not exist"
            )
    return named


def main():
    list_only = "--list-binaries" in sys.argv[1:]
    binaries = known_binaries()
    flags = known_flags()
    runtime_src = runtime_source()
    errors = []
    named = set()
    for md in markdown_files():
        check_links(md, errors)
        # ISSUE.md / CHANGES.md are PR-process logs with free-form
        # shorthand, not user docs; their links are still checked.
        if os.path.basename(md) in ("ISSUE.md", "CHANGES.md"):
            continue
        named |= doc_binaries(md, binaries, errors)
        if flag_checked(md):
            check_flags(md, flags, errors)
        rel = os.path.relpath(md, REPO)
        if rel.startswith("docs" + os.sep):
            check_markers(md, errors)
            if os.path.basename(md) in REPORT_TABLE_DOCS:
                check_report_fields(md, runtime_src, errors)

    if list_only:
        print(" ".join(sorted(named)))
        return 0 if not errors else 1

    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    checked = len(markdown_files())
    if errors:
        print(f"{len(errors)} doc problem(s) in {checked} files",
              file=sys.stderr)
        return 1
    print(f"docs ok: {checked} markdown files, "
          f"{len(named)} binaries referenced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
