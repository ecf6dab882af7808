#!/usr/bin/env python3
"""coca-lint: the project-invariant static analyzer for the COCA tree.

The compiler checks types; the sanitizers check executions; this linter
checks the *project invariants* that neither can see — the rules that keep
the bit-identical-across-thread-counts guarantee, the dimensional soundness
of the Eq. (1)/(2)/(17) cost accounting, and the lock discipline of the
observability pipeline honest at review time.  It is a lightweight C++
tokenizer plus a per-file symbol model — no libclang, no compile database —
so it runs anywhere Python runs, including the gcc-only CI containers.

Checks (run `--list-checks` for the one-liners):

  determinism      Bans nondeterministic sources in src/: rand()/srand(),
                   wall-clock time, chrono clocks, std::random_device and
                   default-constructed mt19937 engines.  Absorbed from the
                   former tools/lint_determinism.py, same rules and waiver
                   grammar.  Clock waivers are honoured only in
                   src/obs/clock.hpp, the single sanctioned timer boundary.

  units-escape     Audits the util/units.hpp escape hatch: every Quantity
                   `.value()` call in src/ outside util/units.hpp must carry
                   a `// UNITS: <why>` justification on the same line, or
                   live in a file listed in the allowlist
                   (tools/coca_lint_allowlist.txt) — which is burned down to
                   solver-math boundaries only.  Stale allowlist entries
                   (files with no remaining `.value()`) are findings too, so
                   the allowlist can only shrink.  Applies to files whose
                   include closure reaches util/units.hpp; matches only dot
                   calls (`x.value()`), the Quantity accessor spelling —
                   `->value()` on heap-pinned obs instruments is out of
                   scope by construction.

  lock-discipline  Fields annotated GUARDED_BY(m) (util/thread_annotations
                   .hpp) may only be touched inside a scope that holds `m`:
                   a std::lock_guard/unique_lock/scoped_lock of `m` in an
                   enclosing scope, a direct m.lock(), or a REQUIRES(m)
                   contract on the function.  The analysis is conservative
                   and function-local (clang -Wthread-safety verifies the
                   same annotations interprocedurally on clang builds);
                   constructors and destructors are exempt — construction
                   and destruction are single-threaded by contract (the
                   destructors here join their worker first).  unlock()/
                   lock() on a tracked lock variable toggles coverage.

  obs-hygiene      (a) Public solver/controller entry points — definitions
                   of solve/solve_chain/plan/observe/replay/
                   run_simulation/on_slot under src/opt, src/core, src/sim,
                   src/des, src/obs (the health plane's per-slot hooks) —
                   must open an obs::ScopedSpan or carry an
                   `// OBS-EXEMPT(why)` waiver, so the span profile keeps
                   attributing slot time.
                   (b) `#include <chrono>` is confined to src/obs/clock.hpp:
                   all timing flows through obs::now_ns().

  header-hygiene   Every header starts with `#pragma once` (or a classic
                   include guard); `<random>` appears only in src/util/rng.*
                   (all randomness flows through util/rng.hpp with explicit
                   seeds) and `<iostream>` never appears in src/ (iostream
                   in library code means stray output and static-init-order
                   coupling; printing belongs in bench/, tools and tests).

  unreached-module Every header under src/ is included by at least one file
                   under src/, bench/, examples/ or perfbench/src/ other
                   than its own .cpp.  Tests do not count: a module only its
                   tests reach is code no shipped path runs.  Includers are
                   read from the whole tree even when explicit PATHs narrow
                   the scan; findings are reported for scanned headers.

Waiver grammar (every waiver carries a justification, enforced non-empty):

    expr;  // NOLINT-DETERMINISM(<why>)     determinism
    x.value()  // UNITS: <why>              units-escape
    field_ = 1;  // LOCK-EXEMPT(<why>)      lock-discipline
    // OBS-EXEMPT(<why>)                    obs-hygiene (on/above signature)
    #include <iostream>  // HYGIENE-EXEMPT(<why>)   header-hygiene

Allowlist grammar (tools/coca_lint_allowlist.txt), one entry per line:

    units-escape <repo-relative-path> -- <justification>

Usage:
    coca_lint.py [--root DIR] [--allowlist FILE] [--checks a,b,...]
                 [--report FILE] [--list-checks] [--self-test] [PATH ...]

Exits 0 when clean, 1 with a file:line report otherwise, 2 on usage errors.
Registered as the `coca_lint` CTest test and the CI static-analysis job;
`--self-test` runs the fixture suite (ctest test `coca_lint_selftest`).
"""

from __future__ import annotations

import argparse
import json
import posixpath
import re
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

EXTENSIONS = {".hpp", ".cpp", ".h", ".cc", ".cxx"}
HEADER_EXTENSIONS = {".hpp", ".h"}

# ---------------------------------------------------------------------------
# Findings


@dataclass
class Finding:
    check: str
    path: str  # repo-relative, posix
    line: int
    message: str
    excerpt: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}: [{self.check}] {self.message}"
        if self.excerpt:
            text += f"\n    {self.excerpt}"
        return text

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


# ---------------------------------------------------------------------------
# Lexing: comment/string stripping that preserves line structure


def strip_comments(text: str, strip_strings: bool = False) -> str:
    """Blank out comments (and optionally string/char literals), keeping
    every newline so line numbers survive."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            if end == -1:
                end = n
            out.append(" " * (end - i))
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            out.append(re.sub(r"[^\n]", " ", text[i:end]))
            i = end
        elif c == "R" and nxt == '"':
            # Raw string literal R"delim( ... )delim"
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            end = text.find(close, i + m.end())
            end = n if end == -1 else end + len(close)
            span = text[i:end]
            out.append(re.sub(r"[^\n]", " ", span) if strip_strings else span)
            i = end
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            if strip_strings:
                out.append(c + " " * (j - i - 2 > 0 and (j - i - 2) or 0) + c)
            else:
                out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def blank_preprocessor_lines(text: str) -> str:
    """Blank `#...` lines (incl. continuations) so macro bodies never confuse
    the brace matcher."""
    out = []
    cont = False
    for line in text.split("\n"):
        is_pp = cont or line.lstrip().startswith("#")
        cont = is_pp and line.rstrip().endswith("\\")
        out.append(" " * len(line) if is_pp else line)
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Per-file model


INCLUDE_LOCAL = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
INCLUDE_SYSTEM = re.compile(r"^\s*#\s*include\s*<([^>]+)>", re.MULTILINE)
LINE_COMMENT = re.compile(r"//.*$")


@dataclass
class SourceFile:
    path: Path
    rel: str  # repo-relative posix path
    raw: str
    raw_lines: list[str] = field(default_factory=list)
    code_lines: list[str] = field(default_factory=list)  # comments stripped
    struct_text: str = ""  # comments+strings+pp blanked
    local_includes: list[str] = field(default_factory=list)
    system_includes: list[tuple[str, int]] = field(default_factory=list)

    @staticmethod
    def load(path: Path, root: Path) -> "SourceFile":
        raw = path.read_text(encoding="utf-8")
        no_comments = strip_comments(raw)
        sf = SourceFile(
            path=path,
            rel=path.relative_to(root).as_posix(),
            raw=raw,
            raw_lines=raw.split("\n"),
            code_lines=no_comments.split("\n"),
            struct_text=blank_preprocessor_lines(
                strip_comments(raw, strip_strings=True)
            ),
            local_includes=INCLUDE_LOCAL.findall(no_comments),
        )
        for m in INCLUDE_SYSTEM.finditer(no_comments):
            sf.system_includes.append(
                (m.group(1), no_comments.count("\n", 0, m.start()) + 1)
            )
        return sf


# ---------------------------------------------------------------------------
# Structure parsing: namespaces, classes (with GUARDED_BY fields), functions


@dataclass
class FunctionDef:
    name: str  # simple name (after the last ::)
    qualifier: str  # owning class ("" for free functions)
    head: str  # text from statement start to the opening brace
    head_line: int  # line of the opening brace
    sig_line: int  # line where the statement (signature) starts
    body_start: int  # offset just after '{'
    body_end: int  # offset of the matching '}'
    body_line: int  # line number of body start


@dataclass
class ClassDef:
    name: str
    body_start: int
    body_end: int
    guarded_fields: dict[str, str] = field(default_factory=dict)


_ID_CALL = re.compile(r"([A-Za-z_~]\w*(?:::~?[A-Za-z_~]\w*)*)\s*\(")
_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "new",
    "delete", "throw", "static_assert", "alignas", "decltype", "noexcept",
    "assert", "defined", "requires",
}
_CLASS_HEAD = re.compile(r"\b(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?(\w+)")
_ENUM_HEAD = re.compile(r"\benum\b")
_NAMESPACE_HEAD = re.compile(r"\bnamespace\b")
_GUARDED_FIELD = re.compile(r"(\w+)\s+GUARDED_BY\s*\(\s*([\w.>:\-]+)\s*\)")


def parse_structure(text: str) -> tuple[list[FunctionDef], list[ClassDef]]:
    """One pass over blanked text: match braces, classify what each '{' opens
    (namespace / class / function / plain block) from the preceding statement
    head, and record function bodies and class spans."""
    functions: list[FunctionDef] = []
    classes: list[ClassDef] = []
    # Context stack entries: (kind, name, open_depth, body_start)
    stack: list[tuple[str, str, int, int]] = []
    depth = 0
    paren = 0
    stmt_start = 0  # last ; { } at paren depth 0
    stmt_start_line = 1
    line = 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
        elif c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c == ";" and paren == 0:
            stmt_start = i + 1
            stmt_start_line = line
        elif c == "{":
            if paren > 0:
                # Braced init inside a parameter/argument list (`= {}`,
                # lambda body in a call) — never a scope of interest.
                stack.append(("block", "", depth, i + 1))
                depth += 1
                i += 1
                continue
            head = text[stmt_start:i].strip()
            kind, name, qual = _classify_head(head, stack)
            stack.append((kind, name, depth, i + 1))
            if kind == "function":
                functions.append(
                    FunctionDef(
                        name=name,
                        qualifier=qual,
                        head=head,
                        head_line=line,
                        sig_line=stmt_start_line,
                        body_start=i + 1,
                        body_end=-1,
                        body_line=line,
                    )
                )
            depth += 1
            paren = 0
            stmt_start = i + 1
            stmt_start_line = line
        elif c == "}":
            depth -= 1
            if paren == 0:
                stmt_start = i + 1
                stmt_start_line = line
            if stack:
                kind, name, _, body_start = stack.pop()
                if kind == "function":
                    for fn in reversed(functions):
                        if fn.body_start == body_start:
                            fn.body_end = i
                            break
                elif kind == "class":
                    cls = ClassDef(name=name, body_start=body_start, body_end=i)
                    for m in _GUARDED_FIELD.finditer(text, body_start, i):
                        cls.guarded_fields[m.group(1)] = m.group(2)
                    classes.append(cls)
        i += 1
    return [f for f in functions if f.body_end >= 0], classes


def _classify_head(
    head: str, stack: list[tuple[str, str, int, int]]
) -> tuple[str, str, str]:
    """Decide what a '{' opens.  Returns (kind, name, qualifier)."""
    inside_function = any(k == "function" or k == "block" for k, *_ in stack)
    if inside_function:
        return ("block", "", "")
    if _NAMESPACE_HEAD.search(head) and "(" not in head:
        return ("namespace", head.split()[-1] if len(head.split()) > 1 else "", "")
    if _ENUM_HEAD.search(head):
        return ("enum", "", "")
    m = _CLASS_HEAD.search(head)
    if m is not None and "=" not in head.split(m.group(1))[0]:
        # A class head never ends with ')' (that would be a function whose
        # signature merely mentions a class type).
        if not head.rstrip().endswith(")") and "::" not in head.split(m.group(1))[-1][:2]:
            return ("class", m.group(1), "")
    # Function definition: an identifier directly followed by '(' whose head
    # is not an assignment target and not a control-flow statement.
    for cand in _ID_CALL.finditer(head):
        full = cand.group(1)
        simple = full.split("::")[-1]
        if simple in _KEYWORDS or full in _KEYWORDS:
            continue
        before = head[: cand.start()]
        if "=" in before and "operator" not in before:
            return ("block", "", "")  # initializer brace, not a body
        qualifier = full.split("::")[-2] if "::" in full else ""
        if not qualifier:
            # In-class method: the enclosing class is the owner.
            for kind, name, *_ in reversed(stack):
                if kind == "class":
                    qualifier = name
                    break
        return ("function", simple, qualifier)
    return ("block", "", "")


# ---------------------------------------------------------------------------
# Check: determinism (absorbed from tools/lint_determinism.py)

DETERMINISM_RULES = [
    (
        "c-prng",
        re.compile(r"(?<![\w:])s?rand\s*\("),
        "C rand()/srand() — use util/rng.hpp with an explicit seed",
    ),
    (
        "wall-clock",
        re.compile(r"std\s*::\s*time\b|(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
        "wall-clock time() — solver paths must not read the clock",
    ),
    (
        "chrono-clock",
        re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
        "std::chrono clock — timing belongs in bench/, not src/",
    ),
    (
        "random-device",
        re.compile(r"\brandom_device\b"),
        "std::random_device — entropy seeding breaks reproducibility",
    ),
    (
        "unseeded-engine",
        re.compile(r"\bmt19937(?:_64)?\s+\w+\s*(?:;|\{\s*\})"),
        "default-constructed mt19937 — seed explicitly via util/rng.hpp",
    ),
]
DETERMINISM_WAIVER = re.compile(r"NOLINT-DETERMINISM\(([^)]+)\)")
CLOCK_RULES = {"wall-clock", "chrono-clock"}
CLOCK_BOUNDARY = "src/obs/clock.hpp"


def check_determinism(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        if not sf.rel.startswith("src/"):
            continue
        at_boundary = sf.rel == CLOCK_BOUNDARY
        for lineno, raw_line in enumerate(sf.code_lines, start=1):
            raw_with_comments = sf.raw_lines[lineno - 1]
            if DETERMINISM_WAIVER.search(raw_with_comments):
                if at_boundary:
                    continue  # waived with a reason at the sanctioned boundary
                stripped = LINE_COMMENT.sub("", raw_with_comments)
                if any(
                    p.search(stripped)
                    for name, p, _ in DETERMINISM_RULES
                    if name in CLOCK_RULES
                ):
                    findings.append(
                        Finding(
                            "determinism",
                            sf.rel,
                            lineno,
                            "[clock-waiver] clock reads can only be waived in "
                            f"{CLOCK_BOUNDARY} — route timing through "
                            "obs::now_ns()",
                            raw_with_comments.strip(),
                        )
                    )
                continue  # non-clock waivers are trusted anywhere
            for name, pattern, message in DETERMINISM_RULES:
                if pattern.search(raw_line):
                    findings.append(
                        Finding(
                            "determinism",
                            sf.rel,
                            lineno,
                            f"[{name}] {message}",
                            raw_with_comments.strip(),
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# Check: units-escape

UNITS_HEADER = "util/units.hpp"
VALUE_CALL = re.compile(r"\.\s*value\s*\(\s*\)")
UNITS_TAG = re.compile(r"//\s*UNITS:\s*\S")


def build_include_closure(files: list[SourceFile]) -> dict[str, set[str]]:
    """Repo-local transitive include closure, keyed/valued by repo-relative
    path.  Local includes are resolved the way the build does: against src/
    (and the including file's directory)."""
    by_rel = {sf.rel: sf for sf in files}
    edges: dict[str, set[str]] = {}
    for sf in files:
        targets = set()
        for inc in sf.local_includes:
            for cand in (f"src/{inc}", str(Path(sf.rel).parent / inc), inc):
                cand = Path(cand).as_posix()
                if cand in by_rel:
                    targets.add(cand)
                    break
        edges[sf.rel] = targets
    closure: dict[str, set[str]] = {}

    def visit(rel: str, seen: set[str]) -> set[str]:
        if rel in closure:
            return closure[rel]
        seen.add(rel)
        acc = set(edges.get(rel, ()))
        for dep in list(acc):
            if dep not in seen:
                acc |= visit(dep, seen)
        closure[rel] = acc
        return acc

    for sf in files:
        visit(sf.rel, set())
    return closure


@dataclass
class AllowlistEntry:
    check: str
    path: str
    justification: str
    line: int
    used: bool = False


def parse_allowlist(path: Path | None) -> tuple[list[AllowlistEntry], list[Finding]]:
    entries: list[AllowlistEntry] = []
    findings: list[Finding] = []
    if path is None or not path.exists():
        return entries, findings
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        head, sep, justification = stripped.partition("--")
        tokens = head.split()
        if len(tokens) != 2 or not sep or not justification.strip():
            findings.append(
                Finding(
                    "units-escape",
                    path.name,
                    lineno,
                    "malformed allowlist entry — expected "
                    "`<check> <path> -- <justification>`",
                    stripped,
                )
            )
            continue
        entries.append(
            AllowlistEntry(tokens[0], tokens[1], justification.strip(), lineno)
        )
    return entries, findings


def check_units_escape(
    files: list[SourceFile], allowlist: list[AllowlistEntry], allowlist_name: str
) -> list[Finding]:
    findings: list[Finding] = []
    closure = build_include_closure(files)
    units_rel = f"src/{UNITS_HEADER}"
    allow_by_path = {e.path: e for e in allowlist if e.check == "units-escape"}
    for sf in files:
        if not sf.rel.startswith("src/") or sf.rel == units_rel:
            continue
        if units_rel not in closure.get(sf.rel, set()):
            continue
        entry = allow_by_path.get(sf.rel)
        for lineno, code_line in enumerate(sf.code_lines, start=1):
            if not VALUE_CALL.search(code_line):
                continue
            if entry is not None:
                entry.used = True
                continue
            if UNITS_TAG.search(sf.raw_lines[lineno - 1]):
                continue
            findings.append(
                Finding(
                    "units-escape",
                    sf.rel,
                    lineno,
                    ".value() escape hatch without a `// UNITS: <why>` tag — "
                    "justify the raw-double boundary or add the file to "
                    f"{allowlist_name} with a reason",
                    sf.raw_lines[lineno - 1].strip(),
                )
            )
    for entry in allow_by_path.values():
        if not entry.used:
            findings.append(
                Finding(
                    "units-escape",
                    allowlist_name,
                    entry.line,
                    f"stale allowlist entry: {entry.path} has no .value() "
                    "calls left (or is not scanned) — delete the entry; the "
                    "allowlist only burns down",
                    f"{entry.path} -- {entry.justification}",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Check: lock-discipline

LOCK_DECL = re.compile(
    r"\b(?:lock_guard|unique_lock|scoped_lock)\s*(?:<[^<>;]*>)?\s+(\w+)\s*[({]([^;]*?)[)}]\s*;"
)
LOCK_CALL = re.compile(r"\b(\w+)\s*\.\s*(lock|unlock)\s*\(\s*\)")
LOCK_EXEMPT = re.compile(r"LOCK-EXEMPT\(([^)]+)\)")
REQUIRES_ANNOT = re.compile(r"\bREQUIRES\s*\(([^)]*)\)")
NO_ANALYSIS = re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b")


@dataclass
class _ActiveLock:
    var: str  # guard variable name ("" for direct mutex.lock())
    mutexes: set[str]
    depth: int
    active: bool = True
    # Depth at which a *branch-local* unlock happened (unlock deeper than the
    # declaration, the early-exit pattern: `if (...) { ...; lock.unlock();
    # return; }`).  Coverage is restored when that scope closes; an unlock at
    # the declaration's own depth stays released.  clang -Wthread-safety
    # checks the full control flow on clang builds.
    suspended_depth: int | None = None


def _normalize_mutex(name: str) -> str:
    return name.replace("this->", "").strip()


def check_lock_discipline(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    guarded_by_class: dict[str, dict[str, str]] = {}
    parsed: list[tuple[SourceFile, list[FunctionDef]]] = []
    for sf in files:
        functions, classes = parse_structure(sf.struct_text)
        parsed.append((sf, functions))
        for cls in classes:
            if cls.guarded_fields:
                guarded_by_class.setdefault(cls.name, {}).update(cls.guarded_fields)
    if not guarded_by_class:
        return findings

    for sf, functions in parsed:
        for fn in functions:
            fields = guarded_by_class.get(fn.qualifier)
            if not fields:
                continue
            simple = fn.name.lstrip("~")
            if simple == fn.qualifier:
                continue  # ctor/dtor: single-threaded by contract
            if NO_ANALYSIS.search(fn.head):
                continue
            required = {
                _normalize_mutex(tok)
                for m in REQUIRES_ANNOT.finditer(fn.head)
                for tok in m.group(1).split(",")
                if tok.strip()
            }
            body = sf.struct_text[fn.body_start : fn.body_end]
            base_line = fn.body_line
            locks: list[_ActiveLock] = []
            depth = 0
            for offset, line in enumerate(body.split("\n")):
                lineno = base_line + offset
                for m in LOCK_DECL.finditer(line):
                    args = m.group(2)
                    mutexes = {
                        _normalize_mutex(a)
                        for a in args.split(",")
                        if a.strip() and "defer_lock" not in a and "std::" not in a
                    }
                    locks.append(
                        _ActiveLock(
                            var=m.group(1),
                            mutexes=mutexes,
                            depth=depth,
                            active="defer_lock" not in args,
                        )
                    )
                for m in LOCK_CALL.finditer(line):
                    var, action = m.group(1), m.group(2)
                    tracked = [l for l in locks if l.var == var]
                    if tracked:
                        for l in tracked:
                            if action == "lock":
                                l.active = True
                                l.suspended_depth = None
                            else:
                                l.active = False
                                l.suspended_depth = depth if depth > l.depth else None
                    elif action == "lock":
                        locks.append(
                            _ActiveLock(var="", mutexes={_normalize_mutex(var)}, depth=depth)
                        )
                    else:
                        for l in locks:
                            if not l.var and var in l.mutexes:
                                l.active = False
                covered = required | {
                    mtx for l in locks if l.active for mtx in l.mutexes
                }
                for fname, mtx in fields.items():
                    if mtx in covered:
                        continue
                    if not re.search(rf"\b{re.escape(fname)}\b", line):
                        continue
                    raw = (
                        sf.raw_lines[lineno - 1]
                        if lineno - 1 < len(sf.raw_lines)
                        else line
                    )
                    if LOCK_EXEMPT.search(raw):
                        continue
                    findings.append(
                        Finding(
                            "lock-discipline",
                            sf.rel,
                            lineno,
                            f"`{fname}` is GUARDED_BY({mtx}) but no lock of "
                            f"{mtx} is in scope here (function "
                            f"{fn.qualifier}::{fn.name}) — take the lock, "
                            "annotate the function REQUIRES(...), or waive "
                            "with // LOCK-EXEMPT(<why>)",
                            raw.strip(),
                        )
                    )
                # End-of-line scope accounting: locks die with their scope.
                min_depth = depth
                for ch in line:
                    if ch == "{":
                        depth += 1
                    elif ch == "}":
                        depth -= 1
                        min_depth = min(min_depth, depth)
                locks = [l for l in locks if l.depth <= min_depth]
                for l in locks:
                    if l.suspended_depth is not None and min_depth < l.suspended_depth:
                        l.active = True
                        l.suspended_depth = None
    return findings


# ---------------------------------------------------------------------------
# Check: obs-hygiene

ENTRY_POINT_NAMES = {"solve", "solve_chain", "plan", "observe",
                     "run_simulation", "replay", "on_slot"}
ENTRY_POINT_DIRS = ("src/opt/", "src/core/", "src/sim/", "src/des/",
                    "src/obs/")
OBS_EXEMPT = re.compile(r"OBS-EXEMPT\(([^)]+)\)")
CHRONO_BOUNDARY = "src/obs/clock.hpp"


def check_obs_hygiene(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        if sf.rel.startswith("src/") and sf.rel != CHRONO_BOUNDARY:
            for header, lineno in sf.system_includes:
                if header == "chrono":
                    findings.append(
                        Finding(
                            "obs-hygiene",
                            sf.rel,
                            lineno,
                            f"<chrono> outside {CHRONO_BOUNDARY} — all timing "
                            "flows through obs::now_ns() so the waiver "
                            "surface stays one line",
                            sf.raw_lines[lineno - 1].strip(),
                        )
                    )
        if not sf.rel.startswith(ENTRY_POINT_DIRS):
            continue
        functions, _ = parse_structure(sf.struct_text)
        for fn in functions:
            if fn.name not in ENTRY_POINT_NAMES:
                continue
            body = sf.struct_text[fn.body_start : fn.body_end]
            if "ScopedSpan" in body:
                continue
            # Waiver anywhere between the previous statement's end (which is
            # where leading comments live) and the opening brace.
            waived = any(
                OBS_EXEMPT.search(sf.raw_lines[k])
                for k in range(max(0, fn.sig_line - 1),
                               min(fn.head_line + 1, len(sf.raw_lines)))
            )
            if waived:
                continue
            label = f"{fn.qualifier}::{fn.name}" if fn.qualifier else fn.name
            findings.append(
                Finding(
                    "obs-hygiene",
                    sf.rel,
                    fn.head_line,
                    f"entry point `{label}` opens no obs::ScopedSpan — the "
                    "span profile loses this stage; open a span or waive "
                    "with // OBS-EXEMPT(<why>)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Check: fault-hooks

FAULT_HOOK_DIR = "src/fault/"
FAULT_HOOK_CLASS = "Injector"


def check_fault_hooks(files: list[SourceFile]) -> list[Finding]:
    """Every fault::Injector method either opens an obs::ScopedSpan or carries
    an explicit // OBS-EXEMPT(<why>) waiver.  The injector's hooks run on the
    simulator's per-slot hot path; an uninstrumented hook would make fault
    handling invisible in span profiles exactly when it matters most."""
    findings: list[Finding] = []
    for sf in files:
        if not sf.rel.startswith(FAULT_HOOK_DIR):
            continue
        functions, _ = parse_structure(sf.struct_text)
        for fn in functions:
            if fn.qualifier != FAULT_HOOK_CLASS:
                continue
            if fn.name.lstrip("~") == fn.qualifier:
                continue  # ctor/dtor: construction is not a hook site
            body = sf.struct_text[fn.body_start : fn.body_end]
            if "ScopedSpan" in body:
                continue
            waived = any(
                OBS_EXEMPT.search(sf.raw_lines[k])
                for k in range(max(0, fn.sig_line - 1),
                               min(fn.head_line + 1, len(sf.raw_lines)))
            )
            if waived:
                continue
            findings.append(
                Finding(
                    "fault-hooks",
                    sf.rel,
                    fn.head_line,
                    f"fault::Injector hook `{fn.name}` opens no "
                    "obs::ScopedSpan — degraded-mode work would vanish from "
                    "span profiles; open a span or waive with "
                    "// OBS-EXEMPT(<why>)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Check: header-hygiene

HYGIENE_EXEMPT = re.compile(r"HYGIENE-EXEMPT\(([^)]+)\)")
RNG_BOUNDARY_PREFIX = "src/util/rng"
BANNED_INCLUDES = [
    # (header, scope-prefixes, exemption predicate, message)
    (
        "random",
        ("src/", "tests/"),
        lambda rel: rel.startswith(RNG_BOUNDARY_PREFIX),
        "<random> outside util/rng — all randomness flows through "
        "util/rng.hpp with explicit seeds",
    ),
    (
        "iostream",
        ("src/",),
        lambda rel: False,
        "<iostream> in src/ — library code must not print; output belongs "
        "in bench/, tools and tests",
    ),
]


def check_header_hygiene(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        for header, scopes, exempt, message in BANNED_INCLUDES:
            if not sf.rel.startswith(scopes) or exempt(sf.rel):
                continue
            for name, lineno in sf.system_includes:
                if name != header:
                    continue
                if HYGIENE_EXEMPT.search(sf.raw_lines[lineno - 1]):
                    continue
                findings.append(
                    Finding(
                        "header-hygiene",
                        sf.rel,
                        lineno,
                        message,
                        sf.raw_lines[lineno - 1].strip(),
                    )
                )
        if sf.path.suffix in HEADER_EXTENSIONS:
            guard = _has_header_guard(sf)
            if guard is not None:
                findings.append(guard)
    return findings


def _has_header_guard(sf: SourceFile) -> Finding | None:
    saw_ifndef = False
    for lineno, line in enumerate(sf.code_lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#pragma") and "once" in stripped:
            return None
        if stripped.startswith("#ifndef"):
            saw_ifndef = True
            continue
        if saw_ifndef and stripped.startswith("#define"):
            return None
        return Finding(
            "header-hygiene",
            sf.rel,
            lineno,
            "header does not start with `#pragma once` (or a classic "
            "include guard)",
            stripped,
        )
    return None


# ---------------------------------------------------------------------------
# Check: unreached-module

REACHING_DIRS = ("src", "bench", "examples", "perfbench/src")


def check_unreached_modules(root: Path, files: list[SourceFile]) -> list[Finding]:
    loaded = {sf.rel: sf for sf in files}
    reached: set[str] = set()
    for top in REACHING_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in EXTENSIONS:
                continue
            rel = path.relative_to(root).as_posix()
            sf = loaded.get(rel) or SourceFile.load(path, root)
            own_header = posixpath.splitext(rel)[0]
            for inc in sf.local_includes:
                for cand in (f"src/{inc}", posixpath.join(posixpath.dirname(rel), inc)):
                    cand = posixpath.normpath(cand)
                    if (root / cand).is_file():
                        if posixpath.splitext(cand)[0] != own_header:
                            reached.add(cand)
                        break
    return [
        Finding(
            "unreached-module",
            sf.rel,
            1,
            "no file under src/, bench/, examples/ or perfbench/src/ "
            "includes this header except its own .cpp — delete the module "
            "or wire it into a shipped path (tests do not count)",
        )
        for sf in files
        if sf.rel.startswith("src/")
        and sf.path.suffix in HEADER_EXTENSIONS
        and sf.rel not in reached
    ]


# ---------------------------------------------------------------------------
# Driver

CHECKS = {
    "determinism": "nondeterministic sources banned in src/ (rand, clocks, random_device, unseeded engines)",
    "units-escape": ".value() escape hatches carry // UNITS: tags or an allowlisted solver-math boundary",
    "lock-discipline": "GUARDED_BY fields only touched under the named mutex (conservative, function-local)",
    "obs-hygiene": "solver/controller/health-plane entry points open spans; <chrono> confined to obs/clock.hpp",
    "fault-hooks": "fault::Injector hook sites open spans or carry // OBS-EXEMPT waivers",
    "header-hygiene": "#pragma once everywhere; <random>/<iostream> confined to their boundaries",
    "unreached-module": "every src/ header is included outside its own .cpp by src/, bench/, examples/ or perfbench/src/",
}


def collect_files(root: Path, paths: list[Path]) -> list[SourceFile]:
    roots = paths or [p for p in (root / "src", root / "tests") if p.is_dir()]
    seen: dict[Path, None] = {}
    for r in roots:
        if r.is_file():
            seen.setdefault(r.resolve())
        else:
            for p in sorted(r.rglob("*")):
                if p.suffix in EXTENSIONS:
                    seen.setdefault(p.resolve())
    return [SourceFile.load(p, root.resolve()) for p in seen]


def run_lint(
    root: Path,
    paths: list[Path] | None = None,
    allowlist_path: Path | None = None,
    checks: set[str] | None = None,
) -> tuple[list[Finding], int]:
    files = collect_files(root, paths or [])
    enabled = checks or set(CHECKS)
    findings: list[Finding] = []
    allowlist_file = allowlist_path or (root / "tools" / "coca_lint_allowlist.txt")
    entries, allow_findings = parse_allowlist(
        allowlist_file if allowlist_file.exists() else None
    )
    if "determinism" in enabled:
        findings += check_determinism(files)
    if "units-escape" in enabled:
        findings += allow_findings
        findings += check_units_escape(files, entries, allowlist_file.name)
    if "lock-discipline" in enabled:
        findings += check_lock_discipline(files)
    if "obs-hygiene" in enabled:
        findings += check_obs_hygiene(files)
    if "fault-hooks" in enabled:
        findings += check_fault_hooks(files)
    if "header-hygiene" in enabled:
        findings += check_header_hygiene(files)
    if "unreached-module" in enabled:
        findings += check_unreached_modules(root.resolve(), files)
    findings.sort(key=lambda f: (f.path, f.line, f.check))
    return findings, len(files)


def write_report(path: Path, findings: list[Finding], file_count: int) -> None:
    report = {
        "schema": "coca-lint-report-v1",
        "files_scanned": file_count,
        "checks": sorted(CHECKS),
        "finding_count": len(findings),
        "findings": [f.to_json() for f in findings],
    }
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Self-test fixtures: a violating and a clean snippet per check, waiver
# syntax, and allowlist expiry.  Each fixture is a miniature repo tree.

_UNITS_STUB = "#pragma once\nnamespace coca::units { }\n"
_FIXTURES: list[tuple[str, dict[str, str], str | None, list[str]]] = [
    (
        "determinism-violation",
        {"src/a.cpp": "int f() { return rand(); }\n"},
        None,
        ["determinism"],
    ),
    (
        "determinism-clean",
        {"src/a.cpp": "int f(int seed) { return seed * 2; }\n"},
        None,
        [],
    ),
    (
        "determinism-waiver",
        {"src/a.cpp": "int f() { return rand(); }  // NOLINT-DETERMINISM(fixture)\n"},
        None,
        [],
    ),
    (
        "determinism-clock-waiver-misplaced",
        {
            "src/a.cpp": "#include <chrono>\n"
            "long f() { return std::chrono::steady_clock::now()"
            ".time_since_epoch().count(); }  // NOLINT-DETERMINISM(nope)\n"
        },
        None,
        ["determinism", "obs-hygiene"],  # misplaced waiver + stray <chrono>
    ),
    (
        "units-untagged-value",
        {
            "src/util/units.hpp": _UNITS_STUB,
            "src/core/a.cpp": '#include "util/units.hpp"\n'
            "double f(coca::units::Usd c) { return c.value(); }\n",
        },
        None,
        ["units-escape"],
    ),
    (
        "units-tagged-value",
        {
            "src/util/units.hpp": _UNITS_STUB,
            "src/core/a.cpp": '#include "util/units.hpp"\n'
            "double f(coca::units::Usd c) { return c.value(); }  "
            "// UNITS: fixture boundary\n",
        },
        None,
        [],
    ),
    (
        "units-allowlisted-file",
        {
            "src/util/units.hpp": _UNITS_STUB,
            "src/opt/a.cpp": '#include "util/units.hpp"\n'
            "double f(coca::units::Usd c) { return c.value(); }\n",
        },
        "units-escape src/opt/a.cpp -- solver-math fixture\n",
        [],
    ),
    (
        "units-allowlist-expired",
        {
            "src/util/units.hpp": _UNITS_STUB,
            "src/opt/a.cpp": '#include "util/units.hpp"\n' "double f() { return 0.0; }\n",
        },
        "units-escape src/opt/a.cpp -- burned down already\n",
        ["units-escape"],
    ),
    (
        "units-empty-justification",
        {
            "src/util/units.hpp": _UNITS_STUB,
            "src/opt/a.cpp": '#include "util/units.hpp"\n'
            "double f(coca::units::Usd c) { return c.value(); }\n",
        },
        "units-escape src/opt/a.cpp --\n",
        ["units-escape", "units-escape"],  # malformed entry + untagged call
    ),
    (
        "lock-unguarded-touch",
        {
            "src/util/p.hpp": "#pragma once\n#include <mutex>\n"
            "class P {\n public:\n  void bump();\n private:\n"
            "  std::mutex mutex_;\n  int n_ GUARDED_BY(mutex_) = 0;\n};\n",
            "src/util/p.cpp": '#include "util/p.hpp"\n' "void P::bump() { ++n_; }\n",
        },
        None,
        ["lock-discipline"],
    ),
    (
        "lock-held-clean",
        {
            "src/util/p.hpp": "#pragma once\n#include <mutex>\n"
            "class P {\n public:\n  void bump();\n private:\n"
            "  std::mutex mutex_;\n  int n_ GUARDED_BY(mutex_) = 0;\n};\n",
            "src/util/p.cpp": '#include "util/p.hpp"\n'
            "void P::bump() {\n  std::lock_guard<std::mutex> lock(mutex_);\n"
            "  ++n_;\n}\n",
        },
        None,
        [],
    ),
    (
        "lock-released-gap",
        {
            "src/util/p.hpp": "#pragma once\n#include <mutex>\n"
            "class P {\n public:\n  void bump();\n private:\n"
            "  std::mutex mutex_;\n  int n_ GUARDED_BY(mutex_) = 0;\n};\n",
            "src/util/p.cpp": '#include "util/p.hpp"\n'
            "void P::bump() {\n  std::unique_lock<std::mutex> lock(mutex_);\n"
            "  ++n_;\n  lock.unlock();\n  ++n_;\n}\n",
        },
        None,
        ["lock-discipline"],
    ),
    (
        "lock-branch-local-unlock",
        {
            "src/util/p.hpp": "#pragma once\n#include <mutex>\n"
            "class P {\n public:\n  void bump();\n private:\n"
            "  std::mutex mutex_;\n  int n_ GUARDED_BY(mutex_) = 0;\n};\n",
            "src/util/p.cpp": '#include "util/p.hpp"\n'
            "void P::bump() {\n  std::unique_lock<std::mutex> lock(mutex_);\n"
            "  if (n_ > 4) {\n    lock.unlock();\n    return;\n  }\n"
            "  ++n_;\n}\n",
        },
        None,
        [],
    ),
    (
        "lock-exempt-waiver",
        {
            "src/util/p.hpp": "#pragma once\n#include <mutex>\n"
            "class P {\n public:\n  void bump();\n private:\n"
            "  std::mutex mutex_;\n  int n_ GUARDED_BY(mutex_) = 0;\n};\n",
            "src/util/p.cpp": '#include "util/p.hpp"\n'
            "void P::bump() { ++n_; }  // LOCK-EXEMPT(fixture: single-threaded)\n",
        },
        None,
        [],
    ),
    (
        "lock-ctor-exempt",
        {
            "src/util/p.hpp": "#pragma once\n#include <mutex>\n"
            "class P {\n public:\n  P();\n private:\n"
            "  std::mutex mutex_;\n  int n_ GUARDED_BY(mutex_) = 0;\n};\n",
            "src/util/p.cpp": '#include "util/p.hpp"\n' "P::P() { n_ = 1; }\n",
        },
        None,
        [],
    ),
    (
        "obs-entry-point-no-span",
        {
            "src/opt/s.cpp": "struct R {};\n"
            "R Solver::solve(int v) {\n  return R{};\n}\n"
        },
        None,
        ["obs-hygiene"],
    ),
    (
        "obs-entry-point-span",
        {
            "src/opt/s.cpp": "struct R {};\n"
            "R Solver::solve(int v) {\n"
            '  const obs::ScopedSpan span("solve");\n  return R{};\n}\n'
        },
        None,
        [],
    ),
    (
        "obs-entry-point-waiver",
        {
            "src/opt/s.cpp": "struct R {};\n"
            "// OBS-EXEMPT(fixture: span opened at the call site)\n"
            "R Solver::solve(int v) {\n  return R{};\n}\n"
        },
        None,
        [],
    ),
    (
        "obs-health-on-slot-no-span",
        {
            "src/obs/h.cpp": "struct S {};\n"
            "void HealthMonitor::on_slot(const S& slot) {\n  (void)slot;\n}\n"
        },
        None,
        ["obs-hygiene"],
    ),
    (
        "obs-health-on-slot-span",
        {
            "src/obs/h.cpp": "struct S {};\n"
            "void HealthMonitor::on_slot(const S& slot) {\n"
            '  const ScopedSpan span("health_check");\n  (void)slot;\n}\n'
        },
        None,
        [],
    ),
    (
        "obs-des-replay-no-span",
        {
            "src/des/r.cpp": "struct R {};\n"
            "R ShardRunner::replay(int v) {\n  return R{};\n}\n"
        },
        None,
        ["obs-hygiene"],
    ),
    (
        "obs-des-replay-span",
        {
            "src/des/r.cpp": "struct R {};\n"
            "R ShardRunner::replay(int v) {\n"
            '  const obs::ScopedSpan span("des_replay");\n  return R{};\n}\n'
        },
        None,
        [],
    ),
    (
        "fault-hook-no-span",
        {
            "src/fault/i.cpp": "struct F {};\n"
            "F Injector::fleet_at(int t) {\n  return F{};\n}\n"
        },
        None,
        ["fault-hooks"],
    ),
    (
        "fault-hook-span",
        {
            "src/fault/i.cpp": "struct F {};\n"
            "F Injector::fleet_at(int t) {\n"
            '  const obs::ScopedSpan span("fault_fleet_at");\n  return F{};\n}\n'
        },
        None,
        [],
    ),
    (
        "fault-hook-waiver",
        {
            "src/fault/i.cpp": "struct F {};\n"
            "// OBS-EXEMPT(fixture: constant-time lookup under the sim span)\n"
            "F Injector::crash_before(int t) {\n  return F{};\n}\n"
        },
        None,
        [],
    ),
    (
        "fault-hook-ctor-exempt",
        {
            "src/fault/i.cpp": "struct F {};\n"
            "Injector::Injector(int t) {\n  (void)t;\n}\n"
        },
        None,
        [],
    ),
    (
        "obs-chrono-confinement",
        {"src/core/t.cpp": "#include <chrono>\nint f() { return 1; }\n"},
        None,
        ["obs-hygiene"],
    ),
    (
        "hygiene-missing-pragma-once",
        {"src/util/h.hpp": "int g();\n"},
        None,
        ["header-hygiene"],
    ),
    (
        "hygiene-classic-guard-ok",
        {
            "src/util/h.hpp": "#ifndef COCA_UTIL_H_HPP\n#define COCA_UTIL_H_HPP\n"
            "int g();\n#endif\n"
        },
        None,
        [],
    ),
    (
        "hygiene-banned-iostream",
        {"src/util/io.cpp": "#include <iostream>\nvoid f() {}\n"},
        None,
        ["header-hygiene"],
    ),
    (
        "hygiene-random-outside-rng",
        {"src/workload/w.cpp": "#include <random>\nvoid f() {}\n"},
        None,
        ["header-hygiene"],
    ),
    (
        "hygiene-random-at-rng-boundary",
        {"src/util/rng.cpp": "#include <random>\nvoid f() {}\n"},
        None,
        [],
    ),
    (
        "unreached-module-test-only",
        {
            "src/opt/m.hpp": "#pragma once\nint f();\n",
            "src/opt/m.cpp": '#include "opt/m.hpp"\nint f() { return 1; }\n',
            "tests/m_test.cpp": '#include "opt/m.hpp"\nint g() { return f(); }\n',
        },
        None,
        ["unreached-module"],
    ),
    (
        "unreached-module-shipped",
        {
            "src/opt/m.hpp": "#pragma once\nint f();\n",
            "src/opt/m.cpp": '#include "opt/m.hpp"\nint f() { return 1; }\n',
            "bench/b.cpp": '#include "opt/m.hpp"\nint main() { return f(); }\n',
        },
        None,
        [],
    ),
]


def self_test() -> int:
    failures = 0
    for name, tree, allowlist, expected in _FIXTURES:
        # The other checks' fixtures are deliberately partial trees (a header
        # and its .cpp, nothing that ships them), so the tree-level
        # unreached-module check runs on its own fixtures only.
        checks = set(CHECKS)
        if not name.startswith("unreached-module"):
            checks.discard("unreached-module")
        with tempfile.TemporaryDirectory(prefix="coca_lint_") as tmp:
            root = Path(tmp)
            for rel, content in tree.items():
                target = root / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(content, encoding="utf-8")
            allowlist_path = None
            if allowlist is not None:
                allowlist_path = root / "tools" / "coca_lint_allowlist.txt"
                allowlist_path.parent.mkdir(parents=True, exist_ok=True)
                allowlist_path.write_text(allowlist, encoding="utf-8")
            findings, _ = run_lint(root, allowlist_path=allowlist_path,
                                   checks=checks)
            got = sorted(f.check for f in findings)
            if got == sorted(expected):
                print(f"  PASS  {name}")
            else:
                failures += 1
                print(f"  FAIL  {name}: expected {sorted(expected)}, got {got}")
                for f in findings:
                    print(f"        {f.render()}")
    total = len(_FIXTURES)
    print(f"coca_lint --self-test: {total - failures}/{total} fixtures pass")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="coca_lint.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: <root>/src and <root>/tests)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the tree containing tools/)")
    parser.add_argument("--allowlist", type=Path, default=None,
                        help="override tools/coca_lint_allowlist.txt")
    parser.add_argument("--checks", default=None,
                        help="comma-separated subset of checks to run")
    parser.add_argument("--report", type=Path, default=None,
                        help="write a coca-lint-report-v1 JSON report here")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded fixture suite and exit")
    args = parser.parse_args(argv[1:])

    if args.list_checks:
        for name in sorted(CHECKS):
            print(f"{name:18s} {CHECKS[name]}")
        return 0
    if args.self_test:
        return self_test()

    checks: set[str] | None = None
    if args.checks:
        checks = {c.strip() for c in args.checks.split(",") if c.strip()}
        unknown = checks - set(CHECKS)
        if unknown:
            print(f"coca_lint: unknown check(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    findings, file_count = run_lint(
        args.root.resolve(), list(args.paths), args.allowlist, checks
    )
    if file_count == 0:
        print("coca_lint: no sources found", file=sys.stderr)
        return 2
    if args.report is not None:
        write_report(args.report, findings, file_count)
    if findings:
        print(f"coca_lint: {len(findings)} finding(s):\n")
        print("\n".join(f.render() for f in findings))
        print(
            "\nEvery finding needs a fix or a justified waiver — see the "
            "waiver grammar in tools/coca_lint.py and DESIGN.md §5."
        )
        return 1
    enabled = sorted(checks) if checks else sorted(CHECKS)
    print(f"coca_lint: {file_count} files clean ({', '.join(enabled)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
