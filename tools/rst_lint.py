#!/usr/bin/env python3
"""rst_lint: project-specific linter for the rst tree (DESIGN.md SS11.1).

Enforces the handful of correctness conventions that generic tooling cannot
know about:

  unchecked-status          every call to a Status/Result-returning function
                            must use the result; explicit discards need
                            `(void)` plus a suppression comment with a reason
  metric-name-literal       names passed to rst::obs entry points (GetCounter,
                            GetGauge, GetHistogram, QueryTrace, Enter,
                            AddCount, AddCompleted, Publish) must be constants
                            from src/rst/obs/metric_names.h, never inline
                            string literals -- a typo'd literal is a silently
                            separate time series
  nondeterministic-query-path
                            no wall-clock or RNG primitives inside the query
                            subsystems; query results must be a pure function
                            of (index, query). Monotonic timing via
                            rst::Stopwatch is fine -- it feeds metrics, not
                            results
  raw-new-delete            no raw `new`/`delete`; ownership lives in smart
                            pointers and containers.
                            Placement new (constructing into storage someone
                            else owns) is additionally permitted in the
                            sources listed in PLACEMENT_NEW_ALLOWED
  include-hygiene           project headers included as "rst/...", no
                            relative ("../") includes, no duplicates, and a
                            .cc file includes its own header first
  header-guard              include guards spell the path: src/rst/a/b.h
                            guards with RST_A_B_H_
  journal-fixture           checked-in workload journals (*.jsonl under the
                            scanned dirs, e.g. tests/fixtures/journals/) must
                            be strictly valid: one JSON object per line, a
                            complete header first, every record carrying the
                            full capture schema (DESIGN.md SS14). ReadJournal
                            tolerates torn tails from crashed captures;
                            fixtures get no such grace
  raw-sync-primitive        no std::mutex/shared_mutex/condition_variable/
                            lock_guard/unique_lock/... outside the annotated
                            wrappers in src/rst/common/mutex.h -- raw
                            primitives are invisible to clang's thread-safety
                            analysis (DESIGN.md SS16)
  mutex-guarded-by          a declared rst::Mutex whose name is
                            never referenced by any RST_* thread-safety
                            annotation in the same file protects nothing the
                            analysis can see; annotate the data it guards
  atomics-rationale         every explicit std::memory_order_* argument needs
                            a `// rst-atomics: <reason>` comment on the same
                            line or within the 5 lines above it (one
                            comment covers an adjacent cluster of sites) --
                            orderings chosen silently rot silently
  manual-lock               manual .lock()/.unlock()/.try_lock() calls
                            (exception: the wrappers in common/mutex.h);
                            use the RAII guards so unlock is exception-safe
                            and the analysis sees the critical section
  thread-detach             std::thread::detach() orphans a thread past the
                            lifetime of everything it references; join it
  sleep-in-src              sleep_for/sleep_until/usleep/nanosleep inside
                            src/ -- library code must block on condition
                            variables or deadlines, never bare sleeps
                            (tests and bench drivers may sleep)
  unused-metric-name        every `inline constexpr char k...[]` in
                            src/rst/obs/metric_names.h must be referenced by
                            some other source under src/, tools/, bench/,
                            perfbench/, tests/, examples/ or fuzz/ -- a name
                            nothing publishes is a dead series in every
                            dashboard and doc that lists it
  bad-suppression           a suppression comment without a reason

Any finding is suppressible on its own line or the line above with

    // rst-lint: allow(<rule>) <reason>

The reason is mandatory; a bare allow() is itself an error.

Usage:
    rst_lint.py [--root DIR] [paths...]   lint (default: src tools bench tests fuzz)
    rst_lint.py --self-test               run against tools/lint_fixtures
    rst_lint.py --list-rules
"""

import argparse
import json
import os
import re
import sys

DEFAULT_SCAN_DIRS = ["src", "tools", "bench", "tests", "fuzz"]
# Fixture sources intentionally violate the rules; never lint them in a
# normal run.
EXCLUDED_DIRS = {os.path.join("tools", "lint_fixtures")}
SOURCE_EXTENSIONS = (".h", ".cc")
# Workload-journal fixtures (obs::ReadJournal inputs) checked by the
# journal-fixture rule.
JOURNAL_EXTENSIONS = (".jsonl",)

RULES = [
    "unchecked-status",
    "metric-name-literal",
    "nondeterministic-query-path",
    "raw-new-delete",
    "include-hygiene",
    "header-guard",
    "journal-fixture",
    "raw-sync-primitive",
    "mutex-guarded-by",
    "atomics-rationale",
    "manual-lock",
    "thread-detach",
    "sleep-in-src",
    "unused-metric-name",
    "bad-suppression",
]

# Subsystems whose runtime behaviour must be a deterministic function of the
# index and the query. common/ (Stopwatch, Rng used only at build/generate
# time) and data/ (generators are explicitly seeded) are not query paths.
QUERY_PATH_DIRS = [
    os.path.join("src", "rst", d)
    for d in ("rstknn", "topk", "maxbrst", "frozen", "rtree", "iurtree",
              "text", "exec", "storage", "simd")
] + [
    # Fixture mirror so --self-test can exercise the rule.
    os.path.join("tools", "lint_fixtures", "bad", "querypath"),
]

# Placement new is not an ownership operation — it constructs into storage
# someone else owns — but a textual linter cannot tell `new (addr) T` from
# `new T` reliably enough to allow it everywhere. No source of the library
# needs it; the fixture mirror keeps the exemption tested by --self-test.
# Plain new/delete remain banned there too.
PLACEMENT_NEW_ALLOWED = {
    os.path.join("tools", "lint_fixtures", "good", "arena",
                 "placement_new.cc"),
}

PLACEMENT_NEW_RE = re.compile(r"\bnew\s*\(")

METRIC_NAMES_HEADER = os.path.join("src", "rst", "obs", "metric_names.h")

# Headers the unused-metric-name rule checks: the real registry of names plus
# fixture mirrors for --self-test. A name counts as used when some other
# source under METRIC_REFERENCE_DIRS (fixtures excluded) or beside the header
# mentions it outside comments and strings.
METRIC_NAME_HEADERS = {
    METRIC_NAMES_HEADER,
    os.path.join("tools", "lint_fixtures", "good", "metricnames",
                 "metric_names.h"),
    os.path.join("tools", "lint_fixtures", "bad", "metricnames",
                 "metric_names.h"),
}
METRIC_REFERENCE_DIRS = ["src", "tools", "bench", "perfbench", "tests",
                         "examples", "fuzz"]
METRIC_NAME_DECL_RE = re.compile(
    r"\binline\s+constexpr\s+char\s+(k\w+)\s*\[\s*\]")
IDENTIFIER_RE = re.compile(r"\b[A-Za-z_]\w*")

OBS_NAME_APIS = ("GetCounter", "GetGauge", "GetHistogram", "QueryTrace",
                 "Enter", "AddCount", "AddCompleted", "Publish")

NONDETERMINISTIC_TOKENS = [
    (re.compile(r"\bstd::rand\b|(?<![\w:])s?rand\s*\("), "C rand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937"), "std::mt19937"),
    (re.compile(r"\bsystem_clock\b"), "wall-clock (system_clock)"),
    (re.compile(r"\bstd::time\s*\(|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time()"),
    (re.compile(r"\blocaltime\b|\bgmtime\b"), "calendar time"),
]

SUPPRESS_RE = re.compile(r"//\s*rst-lint:\s*allow\(([\w\-, ]+)\)\s*(.*)")
EXPECT_RE = re.compile(r"//\s*expect-finding:\s*([\w\-]+)")

STATUS_DECL_RE = re.compile(
    r"(?:^|[;{}\s])(?:static\s+|virtual\s+|friend\s+)*"
    r"(?:[A-Za-z_]\w*::)*(?:Status|Result<[^;{}()=]{1,80}>)\s+"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\(")

# A declaration of the same name with a clearly non-Status return type
# (reference or void) makes the name ambiguous for a purely textual linter;
# such names are dropped from the unchecked-status set rather than flagged
# wrongly (e.g. RstknnStats::Merge vs HistogramSnapshot::Merge).
NONSTATUS_DECL_RE = re.compile(
    r"(?:^|[;{}\s])(?:static\s+|virtual\s+|friend\s+)*"
    r"(?:[A-Za-z_][\w:<>, ]*&|void)\s+"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\(")

# A statement that begins with an (optionally chained) call. Receivers may be
# identifiers, `.`/`->` chains, or `ns::` qualifications.
def _bare_call_re(name):
    return re.compile(
        r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*" + re.escape(name) + r"\s*\(")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


class SourceFile:
    """One parsed source file: raw lines plus comment/string-masked views
    (newline structure preserved so line numbers survive masking)."""

    def __init__(self, path, text):
        self.path = path
        self.lines = text.splitlines()
        nocomment = _mask(text, mask_strings=False)
        nostring = _mask(text, mask_strings=True)
        self.nocomment_lines = nocomment.splitlines()
        self.code_lines = nostring.splitlines()
        self.suppressions = {}  # line number -> set of rule names
        self.bad_suppressions = []  # line numbers of reason-less allows
        for i, line in enumerate(self.lines, start=1):
            m = SUPPRESS_RE.search(line)
            if not m:
                continue
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            if not m.group(2).strip():
                # A reason-less allow() is reported AND does not suppress:
                # silently honouring it would let the justification rot away.
                self.bad_suppressions.append(i)
                continue
            self.suppressions[i] = rules

    def suppressed(self, line, rule):
        for candidate in (line, line - 1):
            if rule in self.suppressions.get(candidate, set()):
                return True
        return False


def _mask(text, mask_strings):
    """Replaces comments (and optionally string/char literals) with spaces,
    preserving newlines. A hand-rolled scanner: no regex can nest // inside
    strings inside comments correctly."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append('"' if not mask_strings else " ")
                i += 1
            elif c == "'":
                state = "char"
                out.append("'" if not mask_strings else " ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  " if mask_strings else c + nxt)
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote if not mask_strings else " ")
                i += 1
            elif c == "\n":  # unterminated (raw strings etc.) -- resync
                state = "code"
                out.append("\n")
                i += 1
            else:
                out.append(" " if mask_strings else c)
                i += 1
    return "".join(out)


def collect_status_functions(files):
    """Names of functions declared to return Status or Result<T> anywhere in
    the linted set. Name-based, so a same-named non-Status function would
    false-positive -- acceptable for this codebase, and suppressible."""
    names = set()
    ambiguous = set()
    for f in files:
        for line in f.code_lines:
            for m in STATUS_DECL_RE.finditer(line):
                name = m.group(1)
                if name not in ("operator",):
                    names.add(name)
            for m in NONSTATUS_DECL_RE.finditer(line):
                ambiguous.add(m.group(1))
    return names - ambiguous


def _statement_start(f, idx):
    """True when code line `idx` (0-based) begins a statement: the previous
    non-blank code line ended in ; { } : or )."""
    for j in range(idx - 1, -1, -1):
        prev = f.code_lines[j].strip()
        if not prev or prev.startswith("#"):
            continue
        return prev[-1] in ";{}:)"
    return True


def check_unchecked_status(f, status_names, findings):
    bare_res = [(name, _bare_call_re(name)) for name in status_names]
    for idx, code in enumerate(f.code_lines):
        lineno = idx + 1
        stripped = code.strip()
        if not stripped or stripped.startswith("#"):
            continue
        void_cast = re.search(
            r"\(\s*void\s*\)\s*(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w*)\s*\(",
            code)
        if void_cast and void_cast.group(1) in status_names:
            findings.append(Finding(
                f.path, lineno, "unchecked-status",
                "(void)-discard of Status-returning '%s' needs "
                "// rst-lint: allow(unchecked-status) <reason>"
                % void_cast.group(1)))
            continue
        if not _statement_start(f, idx):
            continue
        for name, rx in bare_res:
            m = rx.match(code)
            if not m:
                continue
            # The match must consume the whole call as a discarded
            # expression statement: reject `Status Foo(` declarations (the
            # regex cannot match those -- they start with the type), and
            # reject uses like `Foo(x).ok()` or `Foo(x) == y`.
            rest = code[m.end():]
            depth = 1
            k = 0
            while k < len(rest) and depth > 0:
                if rest[k] == "(":
                    depth += 1
                elif rest[k] == ")":
                    depth -= 1
                k += 1
            tail = rest[k:].strip() if depth == 0 else ""
            if depth != 0 or tail in (";", ""):
                findings.append(Finding(
                    f.path, lineno, "unchecked-status",
                    "result of Status-returning '%s' is silently dropped; "
                    "check it or discard with (void) + "
                    "allow(unchecked-status)" % name))
            break


def check_metric_name_literal(f, findings):
    rel = f.path.replace(os.sep, "/")
    if rel.endswith("src/rst/obs/metric_names.h"):
        return
    rx = re.compile(r"\b(%s)\s*\(\s*\"" % "|".join(OBS_NAME_APIS))
    for idx, line in enumerate(f.nocomment_lines):
        m = rx.search(line)
        if m:
            findings.append(Finding(
                f.path, idx + 1, "metric-name-literal",
                "inline string literal passed to %s(); use a constant from "
                "src/rst/obs/metric_names.h (rst::obs::names)" % m.group(1)))


def check_nondeterministic(f, findings, root):
    rel = os.path.relpath(f.path, root).replace(os.sep, "/")
    if not any(rel.startswith(d.replace(os.sep, "/") + "/")
               for d in QUERY_PATH_DIRS):
        return
    for idx, code in enumerate(f.code_lines):
        for rx, what in NONDETERMINISTIC_TOKENS:
            if rx.search(code):
                findings.append(Finding(
                    f.path, idx + 1, "nondeterministic-query-path",
                    "%s in a deterministic query path; results must be a "
                    "pure function of (index, query)" % what))


def check_raw_new_delete(f, findings, root):
    rel = os.path.relpath(f.path, root).replace(os.sep, "/")
    placement_ok = rel in {p.replace(os.sep, "/")
                           for p in PLACEMENT_NEW_ALLOWED}
    for idx, code in enumerate(f.code_lines):
        # Header names are not expressions (`#include <new>`).
        if INCLUDE_RE.match(code):
            continue
        # Deleted special members and operator new/delete declarations are
        # not ownership operations.
        scrubbed = re.sub(r"=\s*delete\b", "", code)
        scrubbed = re.sub(r"\boperator\s+(?:new|delete)\b", "", scrubbed)
        if placement_ok:
            scrubbed = PLACEMENT_NEW_RE.sub("(", scrubbed)
        m = re.search(r"\bnew\b|\bdelete\b(\s*\[\s*\])?", scrubbed)
        if m:
            findings.append(Finding(
                f.path, idx + 1, "raw-new-delete",
                "raw %s; use std::make_unique / containers, or justify "
                "with allow(raw-new-delete)"
                % m.group(0).split()[0]))


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')


def check_include_hygiene(f, findings, root):
    seen = {}
    first_include = None
    for idx, code in enumerate(f.nocomment_lines):
        m = INCLUDE_RE.match(code)
        if not m:
            continue
        lineno = idx + 1
        style, target = m.group(1), m.group(2)
        if first_include is None:
            first_include = (lineno, style, target)
        if target.startswith("rst/") and style == "<":
            findings.append(Finding(
                f.path, lineno, "include-hygiene",
                'project header included with <>; use #include "%s"'
                % target))
        if target.startswith("../") or "/../" in target:
            findings.append(Finding(
                f.path, lineno, "include-hygiene",
                "relative include '%s'; include project headers by full "
                "path from src/" % target))
        if target in seen:
            findings.append(Finding(
                f.path, lineno, "include-hygiene",
                "duplicate include of '%s' (first at line %d)"
                % (target, seen[target])))
        else:
            seen[target] = lineno
    # A library .cc must include its own header first, so every header is
    # verified self-contained by its own translation unit.
    rel = os.path.relpath(f.path, root).replace(os.sep, "/")
    if rel.startswith("src/") and rel.endswith(".cc"):
        own_header = rel[len("src/"):-len(".cc")] + ".h"
        if os.path.exists(os.path.join(root, "src", own_header)):
            if first_include is None or first_include[2] != own_header:
                findings.append(Finding(
                    f.path,
                    first_include[0] if first_include else 1,
                    "include-hygiene",
                    '.cc file must include its own header "%s" first'
                    % own_header))


def expected_guard(rel_path):
    stem = rel_path.replace(os.sep, "/")
    if stem.startswith("src/"):
        stem = stem[len("src/"):]
    return re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_"


def check_header_guard(f, findings, root):
    if not f.path.endswith(".h"):
        return
    rel = os.path.relpath(f.path, root)
    guard = expected_guard(rel)
    directives = [(i + 1, line.strip())
                  for i, line in enumerate(f.nocomment_lines)
                  if line.strip().startswith("#")]
    if not directives:
        findings.append(Finding(f.path, 1, "header-guard",
                                "missing include guard %s" % guard))
        return
    first_line, first = directives[0]
    ok = (first == "#ifndef %s" % guard and len(directives) >= 2 and
          directives[1][1] == "#define %s" % guard and
          directives[-1][1].startswith("#endif"))
    if not ok:
        findings.append(Finding(
            f.path, first_line, "header-guard",
            "include guard must be #ifndef/#define %s with a closing #endif"
            % guard))


# Schema for the journal-fixture rule, mirroring obs/journal.cc. Key sets are
# exact requirements; extra keys are tolerated (ReadJournal ignores them, and
# future versions may add fields).
JOURNAL_HEADER_KEYS = frozenset([
    "type", "version", "label", "data", "algo", "tree", "measure",
    "weighting", "alpha", "threads", "sample_every", "provenance"])
JOURNAL_RECORD_KEYS = frozenset([
    "type", "index", "x", "y", "k", "terms", "wall_ms", "answer_count",
    "answer_digest", "stats"])
JOURNAL_DIGEST_RE = re.compile(r"^[0-9a-f]{16}$")


def check_journal_fixture(f, findings):
    def flag(lineno, message):
        findings.append(Finding(f.path, lineno, "journal-fixture", message))

    for lineno, line in enumerate(f.lines, start=1):
        if not line.strip():
            flag(lineno, "blank line in journal fixture")
            continue
        try:
            obj = json.loads(line)
        except ValueError as e:
            flag(lineno, "line is not valid JSON: %s" % e)
            continue
        if not isinstance(obj, dict):
            flag(lineno, "line must be a JSON object")
            continue
        kind = obj.get("type")
        if lineno == 1:
            if kind != "header":
                flag(lineno, "first line must be the journal header")
                continue
            missing = JOURNAL_HEADER_KEYS - obj.keys()
            if missing:
                flag(lineno, "header missing key(s): %s"
                     % ", ".join(sorted(missing)))
        elif kind == "header":
            flag(lineno, "duplicate header")
        elif kind == "query":
            missing = JOURNAL_RECORD_KEYS - obj.keys()
            if missing:
                flag(lineno, "record missing key(s): %s"
                     % ", ".join(sorted(missing)))
            elif not JOURNAL_DIGEST_RE.match(str(obj["answer_digest"])):
                flag(lineno, "answer_digest must be 16 lowercase hex chars")
        else:
            flag(lineno, "unknown record type %r" % kind)
    if not f.lines:
        flag(1, "journal fixture is empty")


# --- lock discipline (DESIGN.md SS16) -------------------------------------
#
# The annotated wrappers in src/rst/common/mutex.h are the single place raw
# standard-library synchronization primitives (and the manual .lock() /
# .unlock() calls that implement them) may appear. Everywhere else holds
# locks through rst::Mutex + RAII guards, so clang's -Wthread-safety
# analysis sees every acquisition.
SYNC_WRAPPER_HEADER = os.path.join("src", "rst", "common", "mutex.h")

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|recursive_timed_mutex|"
    r"timed_mutex|shared_timed_mutex|condition_variable_any|"
    r"condition_variable|lock_guard|unique_lock|shared_lock|scoped_lock)\b")

# Longest alternatives first: `try_lock` must not shadow `try_lock_shared`.
MANUAL_LOCK_RE = re.compile(
    r"(?:\.|->)\s*(try_lock_shared|unlock_shared|lock_shared|try_lock|"
    r"unlock|lock)\s*\(")

DETACH_RE = re.compile(r"(?:\.|->)\s*detach\s*\(\s*\)")

SLEEP_RE = re.compile(r"\b(sleep_for|sleep_until|usleep|nanosleep)\s*\(")
# Library code must block on condition variables or deadlines; tests and
# bench load drivers may sleep. The fixture mirror lets --self-test
# exercise the rule.
SLEEP_BANNED_DIRS = [
    "src",
    os.path.join("tools", "lint_fixtures", "bad", "srcsleep"),
]

# A Mutex object declaration: `mutable rst::Mutex mu_;`,
# `Mutex run_mu_ RST_ACQUIRED_BEFORE(...)`, `Mutex mu_ = ...`.
# References (`Mutex&` parameters, `Mutex*`) do not declare a capability and
# are not matched.
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:rst::)?Mutex\s+"
    r"([A-Za-z_]\w*)\s*(?:;|=|RST_)")

# Argument lists of RST_GUARDED_BY(mu_), RST_REQUIRES(mu_), RST_EXCLUDES(a,
# b), ... -- any mention inside an annotation proves the analysis can see
# what the mutex protects.
ANNOTATION_ARGS_RE = re.compile(r"\bRST_[A-Z_]+\(([^()]*)\)")

ATOMIC_ORDER_RE = re.compile(
    r"\bstd::memory_order_(?:relaxed|consume|acquire|release|acq_rel|"
    r"seq_cst)\b")
ATOMIC_RATIONALE_RE = re.compile(r"//\s*rst-atomics:\s*\S")
# A rationale covers tokens on its own line and the next few lines; one
# comment above a CAS loop or a cluster of counter updates covers the whole
# cluster (coverage chains from site to site while gaps stay inside the
# window).
ATOMIC_WINDOW = 5


def check_lock_discipline(f, findings, root):
    rel = os.path.relpath(f.path, root).replace(os.sep, "/")
    is_wrapper = rel == SYNC_WRAPPER_HEADER.replace(os.sep, "/")
    sleep_banned = any(
        rel.startswith(d.replace(os.sep, "/") + "/")
        for d in SLEEP_BANNED_DIRS)
    for idx, code in enumerate(f.code_lines):
        lineno = idx + 1
        if not is_wrapper:
            m = RAW_SYNC_RE.search(code)
            if m:
                findings.append(Finding(
                    f.path, lineno, "raw-sync-primitive",
                    "raw std::%s is invisible to thread-safety analysis; "
                    "use the annotated wrappers in rst/common/mutex.h"
                    % m.group(1)))
            m = MANUAL_LOCK_RE.search(code)
            if m:
                findings.append(Finding(
                    f.path, lineno, "manual-lock",
                    "manual .%s() call; hold locks through the RAII guard "
                    "(MutexLock) so the critical section is exception-safe "
                    "and analyzable"
                    % m.group(1)))
        m = DETACH_RE.search(code)
        if m:
            findings.append(Finding(
                f.path, lineno, "thread-detach",
                "detach() orphans a thread past the lifetime of everything "
                "it references; join it (see obs/runtime.cc for the "
                "stop-flag + CondVar shutdown pattern)"))
        if sleep_banned:
            m = SLEEP_RE.search(code)
            if m:
                findings.append(Finding(
                    f.path, lineno, "sleep-in-src",
                    "%s() in library code; block on a CondVar deadline "
                    "(WaitUntil/WaitFor) so shutdown can interrupt the wait"
                    % m.group(1)))


def check_mutex_guarded_by(f, findings):
    refs = set()
    for code in f.code_lines:
        for m in ANNOTATION_ARGS_RE.finditer(code):
            refs.update(re.findall(r"[A-Za-z_]\w*", m.group(1)))
    for idx, code in enumerate(f.code_lines):
        m = MUTEX_DECL_RE.match(code)
        if m and m.group(1) not in refs:
            findings.append(Finding(
                f.path, idx + 1, "mutex-guarded-by",
                "mutex '%s' is never named by any RST_* annotation in this "
                "file; mark what it protects with RST_GUARDED_BY(%s) (and "
                "RST_REQUIRES/RST_EXCLUDES on the methods that take it)"
                % (m.group(1), m.group(1))))


def check_atomics_rationale(f, findings):
    last_covered = None  # 0-based index of the most recent covered site
    for idx, code in enumerate(f.code_lines):
        if not ATOMIC_ORDER_RE.search(code):
            continue
        lo = max(0, idx - ATOMIC_WINDOW)
        covered = any(ATOMIC_RATIONALE_RE.search(f.lines[j])
                      for j in range(lo, idx + 1))
        if not covered and last_covered is not None and \
                idx - last_covered <= ATOMIC_WINDOW:
            covered = True  # same cluster as an already-justified site
        if covered:
            last_covered = idx
        else:
            findings.append(Finding(
                f.path, idx + 1, "atomics-rationale",
                "explicit memory_order without a nearby "
                "// rst-atomics: <reason> comment; say why this ordering "
                "is sufficient (what publishes, what acquires)"))


def check_unused_metric_names(f, findings, root, parsed):
    """`parsed` maps already-read paths to SourceFile, so files the run lints
    anyway are not masked twice."""
    rel = os.path.relpath(f.path, root)
    if rel not in METRIC_NAME_HEADERS:
        return
    declared = []
    for idx, code in enumerate(f.nocomment_lines):
        m = METRIC_NAME_DECL_RE.search(code)
        if m:
            declared.append((idx + 1, m.group(1)))
    if not declared:
        return
    header = os.path.abspath(f.path)
    sources = gather_sources(root, METRIC_REFERENCE_DIRS)
    beside = os.path.dirname(header)
    sources += [os.path.join(beside, name) for name in os.listdir(beside)
                if name.endswith(SOURCE_EXTENSIONS)]
    referenced = set()
    for path in sorted(set(os.path.abspath(p) for p in sources)):
        if path == header or path.endswith(JOURNAL_EXTENSIONS):
            continue
        source = parsed.get(path)
        if source is None:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                source = SourceFile(path, fh.read())
        for code in source.code_lines:
            referenced.update(IDENTIFIER_RE.findall(code))
    for lineno, name in declared:
        if name not in referenced:
            findings.append(Finding(
                f.path, lineno, "unused-metric-name",
                "metric name %s is referenced nowhere under %s; delete it "
                "or publish it" % (name, ", ".join(
                    d + "/" for d in METRIC_REFERENCE_DIRS))))


def lint_files(paths, root):
    files = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                files.append(SourceFile(path, fh.read()))
        except OSError as e:
            print("rst_lint: cannot read %s: %s" % (path, e), file=sys.stderr)
            return None
    journal_files = [f for f in files
                     if f.path.endswith(JOURNAL_EXTENSIONS)]
    files = [f for f in files if not f.path.endswith(JOURNAL_EXTENSIONS)]
    status_names = collect_status_functions(files)
    parsed = {os.path.abspath(f.path): f for f in files}
    all_findings = []
    for f in journal_files:
        findings = []
        check_journal_fixture(f, findings)
        all_findings.extend(findings)
    for f in files:
        findings = []
        check_unchecked_status(f, status_names, findings)
        check_metric_name_literal(f, findings)
        check_nondeterministic(f, findings, root)
        check_raw_new_delete(f, findings, root)
        check_include_hygiene(f, findings, root)
        check_header_guard(f, findings, root)
        check_lock_discipline(f, findings, root)
        check_mutex_guarded_by(f, findings)
        check_atomics_rationale(f, findings)
        check_unused_metric_names(f, findings, root, parsed)
        for lineno in f.bad_suppressions:
            findings.append(Finding(
                f.path, lineno, "bad-suppression",
                "rst-lint: allow(...) requires a reason after the closing "
                "parenthesis"))
        for finding in findings:
            if finding.rule != "bad-suppression" and \
                    f.suppressed(finding.line, finding.rule):
                continue
            all_findings.append(finding)
    all_findings.sort(key=lambda x: (x.path, x.line))
    return all_findings


def gather_sources(root, scan_dirs):
    paths = []
    for d in scan_dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            rel_dir = os.path.relpath(dirpath, root)
            if any(rel_dir == ex or rel_dir.startswith(ex + os.sep)
                   for ex in EXCLUDED_DIRS):
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS + JOURNAL_EXTENSIONS):
                    paths.append(os.path.join(dirpath, name))
    return sorted(paths)


def self_test(root):
    """Fixture check: every good/ file lints clean; every bad/ file produces
    exactly the rules its `// expect-finding:` comments announce."""
    fixtures = os.path.join(root, "tools", "lint_fixtures")
    good_dir = os.path.join(fixtures, "good")
    bad_dir = os.path.join(fixtures, "bad")
    failures = 0

    good = gather_sources(good_dir, ["."])
    findings = lint_files(good, root)
    if findings is None:
        return 2
    for f in findings:
        print("SELF-TEST FAIL (good file flagged): %s" % f)
        failures += 1
    if not good:
        print("SELF-TEST FAIL: no good fixtures under %s" % good_dir)
        failures += 1

    bad = gather_sources(bad_dir, ["."])
    if not bad:
        print("SELF-TEST FAIL: no bad fixtures under %s" % bad_dir)
        failures += 1
    for path in bad:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        expected = sorted(EXPECT_RE.findall(text))
        if not expected:
            print("SELF-TEST FAIL: %s declares no expect-finding" % path)
            failures += 1
            continue
        findings = lint_files([path], root)
        actual = sorted(f.rule for f in findings)
        if actual != expected:
            print("SELF-TEST FAIL: %s\n  expected %s\n  got      %s" %
                  (path, expected, actual))
            for f in findings:
                print("    %s" % f)
            failures += 1
    if failures == 0:
        print("rst_lint self-test: %d good, %d bad fixtures OK"
              % (len(good), len(bad)))
        return 0
    return 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of this "
                             "script's directory)")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the linter against tools/lint_fixtures")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: %s)"
                             % " ".join(DEFAULT_SCAN_DIRS))
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(root)

    if args.self_test:
        return self_test(root)

    if args.paths:
        paths = []
        for p in args.paths:
            if os.path.isdir(p):
                paths.extend(gather_sources(p, ["."]))
            else:
                paths.append(p)
    else:
        paths = gather_sources(root, DEFAULT_SCAN_DIRS)

    if not paths:
        print("rst_lint: nothing to lint", file=sys.stderr)
        return 2
    findings = lint_files(paths, root)
    if findings is None:
        return 2
    for f in findings:
        print(f)
    if findings:
        print("rst_lint: %d finding(s) in %d file(s)"
              % (len(findings), len({f.path for f in findings})))
        return 1
    print("rst_lint: %d files clean" % len(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
