#!/usr/bin/env python3
"""Documentation lint for the PowerSensor3 reproduction.

Run from ctest as the `docs_check` test (see tests/CMakeLists.txt)
or standalone:

    python3 tools/docs_check.py [repo_root]

Checks (stdlib only, no external dependencies):

 1. every relative Markdown link in *.md resolves to an existing
    file (anchors and external http/https/mailto links are skipped);
 2. every inline code span that names a repo path (src/..., docs/...,
    tools/..., tests/..., apps/..., bench/..., examples/...) points
    at a file or directory that actually exists — stale `src/foo.cpp`
    mentions are how prose drifts from the tree (globs, placeholders
    and spans with spaces are skipped; a trailing :line is ignored);
 3. every public header under src/obs and src/host carries a
    file-level Doxygen comment (`/** ... @file`);
 4. every class/struct declared in those headers is preceded by a
    doc comment;
 5. the totals README.md claims about the build stay honest: the
    gtest suite count must equal the suites tests/CMakeLists.txt
    registers, every "N+ tests" claim must agree with every other,
    and the bench tally (paper benches + ablations + extensions)
    must match the targets bench/CMakeLists.txt builds;
 6. a Markdown line may say a `BM_*` bench "gates" or "is gated"
    only if tools/bench_compare.py's GATED lists that bench;
 7. if doxygen is installed, the headers additionally must produce
    no documentation warnings (skipped silently otherwise, so the
    check works in minimal containers).

Exit status 0 when clean, 1 with a findings list otherwise.
"""

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# "`BM_Name` gates ..." / "BM_Name is gated": a claim about the gate.
GATE_CLAIM = re.compile(r"`?(BM_\w+)(?:/\w+)?`?\s+(?:gates|is gated)\b")
DOC_HEADER_DIRS = ("src/obs", "src/host")
SKIP_DIRS = {".git", "build", ".claude"}


def markdown_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not any(part in SKIP_DIRS for part in path.parts):
            yield path


def check_markdown_links(root: Path):
    """Broken relative links in Markdown files."""
    problems = []
    for md in markdown_files(root):
        text = md.read_text(encoding="utf-8")
        # Drop fenced code blocks: links there are illustrative.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in MARKDOWN_LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            resolved = (md.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{md.relative_to(root)}: broken link -> {target}"
                )
    return problems


CODE_SPAN = re.compile(r"`([^`\n]+)`")
PATH_PREFIXES = (
    "src/", "apps/", "bench/", "docs/", "tools/", "tests/",
    "examples/",
)
# Globs, shell fragments and placeholders are not literal paths.
NON_LITERAL = set("*?<>{}$|= ,;()'\"")


def check_path_spans(root: Path):
    """Inline code spans naming repo paths that don't exist."""
    problems = []
    for md in markdown_files(root):
        text = md.read_text(encoding="utf-8")
        # Fenced blocks hold commands and example output, not claims
        # about the tree.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in CODE_SPAN.finditer(text):
            span = match.group(1).strip()
            path_part = re.sub(r":\d+(?::\d+)?$", "", span)
            if not path_part.startswith(PATH_PREFIXES):
                continue
            if any(ch in NON_LITERAL for ch in path_part):
                continue
            if not (root / path_part).exists():
                problems.append(
                    f"{md.relative_to(root)}: "
                    f"path span names a missing file -> `{span}`"
                )
    return problems


def public_headers(root: Path):
    for directory in DOC_HEADER_DIRS:
        yield from sorted((root / directory).glob("*.hpp"))


def check_header_docs(root: Path):
    """File-level and per-class doc comments in public headers."""
    problems = []
    for header in public_headers(root):
        text = header.read_text(encoding="utf-8")
        rel = header.relative_to(root)
        first_block = text.lstrip()
        if not first_block.startswith("/**") or "@file" not in text:
            problems.append(
                f"{rel}: missing file-level doc comment (/** @file)"
            )
        # Each class/struct declaration must follow a doc comment.
        lines = text.splitlines()
        decl = re.compile(r"^(class|struct)\s+\w+[^;]*$")
        for i, line in enumerate(lines):
            if not decl.match(line.strip()):
                continue
            above = ""
            for j in range(i - 1, -1, -1):
                stripped = lines[j].strip()
                if stripped in ("", "template <typename T>"):
                    continue
                above = stripped
                break
            if not (above.endswith("*/") or above.startswith("//")):
                problems.append(
                    f"{rel}:{i + 1}: undocumented "
                    f"{line.strip().split()[0]} declaration"
                )
    return problems


def registered_test_suites(root: Path):
    """Gtest suite targets registered in tests/CMakeLists.txt."""
    text = (root / "tests" / "CMakeLists.txt").read_text(
        encoding="utf-8"
    )
    suites = set(re.findall(r"ps3_add_test\((\w+)\)", text))
    suites |= set(
        re.findall(r"add_executable\((test_\w+)\s", text)
    )
    for match in re.finditer(
        r"foreach\(\w+((?:\s+test_\w+)+)\)", text
    ):
        suites |= set(match.group(1).split())
    return suites


def check_claimed_counts(root: Path):
    """Stale totals in README.md vs the build registrations."""
    problems = []
    readme = root / "README.md"
    text = readme.read_text(encoding="utf-8")

    suites = registered_test_suites(root)
    for match in re.finditer(r"(\d+) gtest suites", text):
        claimed = int(match.group(1))
        if claimed != len(suites):
            problems.append(
                f"{readme.relative_to(root)}: claims {claimed} "
                f"gtest suites, tests/CMakeLists.txt registers "
                f"{len(suites)}"
            )

    # The exact ctest total needs a configured build (test discovery
    # multiplies parameterised suites), so "N+" claims are linted for
    # mutual consistency: they must all state the same floor, so one
    # stale mention cannot survive an update of the others.
    floors = {
        int(n)
        for n in re.findall(r"(\d+)\+ (?:ctest )?tests", text)
    }
    if len(floors) > 1:
        problems.append(
            f"{readme.relative_to(root)}: inconsistent test-count "
            f"claims: {sorted(floors)}"
        )

    bench_text = (root / "bench" / "CMakeLists.txt").read_text(
        encoding="utf-8"
    )
    # The last foreach entry carries the closing parenthesis.
    benches = set(
        re.findall(r"^\s*(bench_\w+)\)?$", bench_text, re.M)
    )
    ablations = {b for b in benches if b.startswith("bench_ablation_")}
    extensions = {b for b in benches if b.startswith("bench_ext_")}
    paper = benches - ablations - extensions
    claim = re.search(
        r"(\d+) paper-reproduction benches \+ (\d+) ablations "
        r"\+\s+(\d+) extensions",
        text,
    )
    if claim:
        counted = (len(paper), len(ablations), len(extensions))
        claimed = tuple(int(g) for g in claim.groups())
        if claimed != counted:
            problems.append(
                f"{readme.relative_to(root)}: bench tally "
                f"{claimed} != bench/CMakeLists.txt "
                f"{counted} (paper, ablations, extensions)"
            )
    return problems


def check_gated_claims(root: Path):
    """Markdown claims that a bench gates which GATED does not list."""
    sys.path.insert(0, str(root / "tools"))
    try:
        from bench_compare import GATED
    finally:
        sys.path.pop(0)
    gated = {name.split("/")[0] for name in GATED}
    problems = []
    for md in markdown_files(root):
        in_fence = False
        lines = md.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in GATE_CLAIM.finditer(line):
                if match.group(1) not in gated:
                    problems.append(
                        f"{md.relative_to(root)}:{number}: says "
                        f"{match.group(1)} is gated, but "
                        f"tools/bench_compare.py GATED does not "
                        f"list it"
                    )
    return problems


def check_doxygen(root: Path):
    """Doxygen warnings for the public headers, when available."""
    doxygen = shutil.which("doxygen")
    if doxygen is None:
        return []  # minimal container: the stdlib checks still ran
    with tempfile.TemporaryDirectory() as tmp:
        doxyfile = Path(tmp) / "Doxyfile"
        inputs = " ".join(str(root / d) for d in DOC_HEADER_DIRS)
        doxyfile.write_text(
            f"""
            PROJECT_NAME = ps3-docs-check
            INPUT = {inputs}
            FILE_PATTERNS = *.hpp
            GENERATE_HTML = NO
            GENERATE_LATEX = NO
            QUIET = YES
            WARNINGS = YES
            WARN_IF_UNDOCUMENTED = YES
            WARN_NO_PARAMDOC = NO
            OUTPUT_DIRECTORY = {tmp}
            """,
            encoding="utf-8",
        )
        result = subprocess.run(
            [doxygen, str(doxyfile)],
            capture_output=True,
            text=True,
            check=False,
        )
        return [
            f"doxygen: {line}"
            for line in result.stderr.splitlines()
            if "warning:" in line.lower()
        ]


def main(argv):
    root = Path(argv[1]).resolve() if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent
    )
    problems = []
    problems += check_markdown_links(root)
    problems += check_path_spans(root)
    problems += check_header_docs(root)
    problems += check_claimed_counts(root)
    problems += check_gated_claims(root)
    problems += check_doxygen(root)
    if problems:
        print(f"docs-check: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    md_count = sum(1 for _ in markdown_files(root))
    hdr_count = sum(1 for _ in public_headers(root))
    print(
        f"docs-check: OK ({md_count} Markdown files, "
        f"{hdr_count} public headers)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
