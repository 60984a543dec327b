#!/usr/bin/env python3
"""htg_lint: project-specific invariants the compiler can't check.

Rules (ids usable in NOLINT suppressions):

  raw-io            All file I/O in src/ goes through the storage::Vfs seam
                    (src/storage/vfs.cc is the one POSIX boundary). Raw
                    fopen/::open/::pwrite/::fsync/fstream anywhere else in
                    engine code bypasses fault injection and crash-safety
                    accounting.
  server-raw-socket All socket syscalls (::socket/::recv/::send/... and
                    the <sys/socket.h> family of includes) live in
                    src/server/net_socket.{h,cc}, the network seam that
                    gives the server typed errors, EINTR retries, and
                    MSG_NOSIGNAL. Everything else talks through
                    server::Socket / ListenSocket / Client.
  naked-new         No naked new/delete in src/: ownership must be visible
                    at the allocation site (make_unique, unique_ptr(new ...),
                    .reset(new ...), or the intentional-leak `*new` static
                    singleton idiom). Page/tree node internals in
                    src/storage/bplus_tree.cc are exempt.
  statuscode-switch A switch over htg::StatusCode must be exhaustive: no
                    `default:` label that would silently swallow newly added
                    codes (the compiler's -Wswitch only helps without one).
  uda-merge         Every aggregate -- the State of a TypedAggregate<State>,
                    or a direct AggregateFunction subclass -- must
                    implement Merge(), the paper's precondition (Sec. 5.3)
                    for running it in a parallel partial/final plan, unless
                    it declares `SupportsMerge() const { return false; }`.
  include-cc        Never #include a .cc file.
  pragma-once       Every header starts with #pragma once.
  void-status       No (void)/static_cast<void> discard of a call result in
                    src/ -- dropping a Status/Result that way is invisible;
                    use HTG_IGNORE_STATUS(expr), which logs in debug builds.
  status-ok-drop    No `expr.ok();` in statement position: calling .ok()
                    and ignoring the bool launders [[nodiscard]] away.
  exec-raw-timing   No raw std::chrono clock reads (steady_clock /
                    high_resolution_clock / system_clock, or clock_gettime)
                    in src/exec: operator timing must go through
                    htg::Stopwatch / the OperatorStats plumbing so EXPLAIN
                    ANALYZE accounting stays in one place.
  env-doc           Every HTG_* environment variable referenced from src/
                    or bench/ must appear in docs/OPERATIONS.md -- one
                    table holds every runtime knob, so a knob that exists
                    only in code is undocumented by definition. In
                    reverse, every knob row there must still be referenced
                    from src/, bench/, perfbench/, tests/, tools/ or a
                    CMake file, so deleting a knob cannot leave a stale
                    row behind.
  sync-raw-mutex    No raw std::mutex / std::shared_mutex / lock_guard /
                    unique_lock / shared_lock / scoped_lock /
                    condition_variable outside
                    src/common/synchronization.{h,cc}: the annotated
                    Mutex/SharedMutex/CondVar wrappers there carry the
                    Clang thread-safety attributes and feed the
                    HTG_DEADLOCK_DETECT lock-order detector; a raw
                    primitive is invisible to both.
  sync-unguarded-field
                    A class that declares a Mutex/SharedMutex member must
                    annotate at least one sibling field with
                    HTG_GUARDED_BY -- a lock that guards nothing the
                    analysis can see is either dead or protecting data it
                    is not tied to. NOLINT the mutex declaration with a
                    reason if the lock's protectorate genuinely cannot be
                    expressed as fields (e.g. it orders external I/O).
  sync-locked-suffix
                    A method named *Locked() must carry HTG_REQUIRES(...)
                    on its declaration: the suffix is the repo convention
                    for "caller already holds the lock", and the
                    annotation is what lets Clang enforce it.
  exec-batch-rowloop
                    No per-row `Next()` pulls anywhere in src/exec: every
                    operator, the joins and the spill readers included,
                    pulls whole batches with NextBatch(), so no pipeline
                    silently degrades to tuple-at-a-time. The one row
                    seam is the TVF inside CROSS APPLY
                    (src/exec/apply_ops.cc is exempt wholesale).
  exec-untracked-reserve
                    In the materializing operator files (sort_ops,
                    aggregate_ops, join_ops, basic_ops under src/exec), a
                    row buffer (`std::vector<Row>`) reserved or resized
                    to a non-literal size must be in scope of the
                    memory-governance plumbing: the enclosing function or
                    class has to hold a charge (MemoryCharge /
                    MemoryContext) so the bytes count against the query
                    budget and can trigger spilling. Fixed-size literal
                    reservations and arity-sized scratch are exempt.
  exact-reserve     No `x.reserve(x.size() + n)` (or `x->reserve(x->size()
                    + n)`) on one identifier: libstdc++'s vector::reserve
                    allocates exactly the size asked for, so calling it
                    once per batch reallocates and moves every element
                    each time and growth inside a loop turns quadratic.
                    Let push_back grow the vector geometrically, or
                    reserve the total once. NOLINT a hit whose container
                    grows geometrically anyway (std::string), with the
                    reason.
  exec-spill-seam   In src/exec, spill files are created and spill runs
                    written (SpillFile::Create, SpillRunWriter) only in
                    src/exec/spill_util.h -- the one hash-partition
                    spill (PartitionSpill) and its worklist -- and in
                    src/exec/sort_ops.cc, whose sorted runs are the one
                    spill that is not a hash partition. A third copy of
                    the partition-spill-recurse algorithm cannot creep
                    back in.
  exec-scan-seam    In src/exec, src/sql and src/server, table scans are
                    opened (NewScan, NewScanRange, NewSnapshotScan*) only
                    in src/exec/basic_ops.cc -- TableScanOp, which reads
                    through the statement's snapshot. A scan that skips
                    the snapshot cannot creep back into the engine.
  storage-append-seam
                    Rows enter tables only through Database::AppendBatch,
                    which validates, casts and moves FILESTREAM content
                    before it appends. Outside src/storage/ and
                    src/catalog/database.cc, code under src/ may not call
                    AppendBatch( on anything but a Database handle (a
                    receiver named db, db_, db() or database).

Suppression: append `// NOLINT(htg-<rule>)` to the offending line (or a
bare NOLINT comment, honoured for compatibility with clang-tidy). Lint
fixtures under tests/lint/ are excluded from the tree scan and exercised by
`--selftest`, which asserts every `// expect-lint: <rule>` annotation fires
and nothing else does.

Usage:
  htg_lint.py [ROOT]              lint ROOT/{src,bench,tests}  (default: cwd)
  htg_lint.py --rule NAME [ROOT]  run only the named rule (repeatable)
  htg_lint.py --selftest [ROOT]   run the fixture self-test
  htg_lint.py --list-rules        print every rule with its one-line summary
"""

import os
import re
import sys

FIXTURE_DIR = os.path.join("tests", "lint")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [htg-{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving offsets and
    newlines so line numbers stay valid. NOLINT markers are handled by the
    caller before stripping."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
            elif c in "\"'":
                state = c
                out.append(c)
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # inside a string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == state:
                state = None
                out.append(c)
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def matching_brace(text, open_idx):
    """Index just past the brace matching text[open_idx] ('{'), or len."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


# ---------------------------------------------------------------- rules ---

RAW_IO_RE = re.compile(
    r"\b(fopen|freopen|tmpfile)\s*\("
    r"|::\s*(open|openat|creat|pread|pwrite|fsync|fdatasync)\s*\("
    r"|\bstd::(i|o)?fstream\b"
)


def check_raw_io(path, text, rel):
    if rel.replace(os.sep, "/") == "src/storage/vfs.cc":
        return []
    return [
        Finding(path, line_of(text, m.start()), "raw-io",
                f"raw file I/O `{m.group(0).strip()}` bypasses the Vfs seam; "
                "use storage::Vfs (src/storage/vfs.h)")
        for m in RAW_IO_RE.finditer(text)
    ]


RAW_SOCKET_RE = re.compile(
    r"#include\s*<(sys/socket\.h|netinet/[\w./]+|arpa/inet\.h)>"
    r"|::\s*(socket|connect|bind|listen|accept4?|recv(from)?|send(to)?"
    r"|setsockopt|getsockopt|getsockname|shutdown)\s*\("
)
# The one sanctioned home of socket syscalls (the server's Vfs-style
# network seam).
SOCKET_SEAM = {"src/server/net_socket.cc", "src/server/net_socket.h"}


def check_server_raw_socket(path, text, rel):
    if rel.replace(os.sep, "/") in SOCKET_SEAM:
        return []
    return [
        Finding(path, line_of(text, m.start()), "server-raw-socket",
                f"raw socket call `{m.group(0).strip()}` bypasses the "
                "network seam; use server::Socket / ListenSocket "
                "(src/server/net_socket.h)")
        for m in RAW_SOCKET_RE.finditer(text)
    ]


NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (place)` is placement new
DELETE_RE = re.compile(r"\bdelete(\[\])?\s")
NAKED_NEW_EXEMPT = {"src/storage/bplus_tree.cc"}
OWNED_CONTEXT_RE = re.compile(
    r"(unique_ptr|shared_ptr|make_unique|make_shared|\.reset|->reset)"
    r"[^;{}]*$"
)


def check_naked_new(path, text, rel):
    if rel.replace(os.sep, "/") in NAKED_NEW_EXEMPT:
        return []
    findings = []
    for m in NEW_RE.finditer(text):
        # Statement context: everything since the last ; { or } before `new`.
        stmt_start = max(
            text.rfind(";", 0, m.start()),
            text.rfind("{", 0, m.start()),
            text.rfind("}", 0, m.start()),
        )
        stmt = text[stmt_start + 1: m.start()]
        # `*new T(...)` is the sanctioned intentional-leak singleton idiom.
        if stmt.rstrip().endswith("*"):
            continue
        if OWNED_CONTEXT_RE.search(stmt):
            continue
        findings.append(Finding(
            path, line_of(text, m.start()), "naked-new",
            "naked `new` without a visible owner; use make_unique / "
            "unique_ptr(new ...) or the `*new` leaky-singleton idiom"))
    for m in DELETE_RE.finditer(text):
        before = text[max(0, m.start() - 24): m.start()]
        if re.search(r"=\s*$", before):  # `= delete;` deleted function
            continue
        if re.search(r"operator\s*$", before):
            continue
        findings.append(Finding(
            path, line_of(text, m.start()), "naked-new",
            "naked `delete`; prefer owning smart pointers"))
    return findings


SWITCH_RE = re.compile(r"\bswitch\s*\(")


def check_statuscode_switch(path, text, rel):
    findings = []
    for m in SWITCH_RE.finditer(text):
        cond_start = m.end() - 1
        depth, i = 0, cond_start
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        cond = text[cond_start: i + 1]
        if "StatusCode" not in cond and not re.search(
                r"(\.|->)\s*code\s*\(\s*\)", cond):
            continue
        body_open = text.find("{", i)
        if body_open < 0:
            continue
        body_end = matching_brace(text, body_open)
        dm = re.search(r"\bdefault\s*:", text[body_open:body_end])
        if dm:
            findings.append(Finding(
                path, line_of(text, body_open + dm.start()),
                "statuscode-switch",
                "`default:` in a switch over StatusCode silently swallows "
                "newly added codes; enumerate every case instead"))
    return findings


# An aggregate is written either as a TypedAggregate<State> subclass,
# whose State type carries the Merge, or as a direct AggregateFunction
# subclass.
_UDA_BASE = (r"\bclass\s+(\w+)\s*(?:final\s*)?:\s*public\s+"
             r"(?:::)?(?:htg::)?(?:udf::)?")
TYPED_UDA_RE = re.compile(
    _UDA_BASE + r"TypedAggregate\s*<\s*(?:struct\s+|class\s+)?([\w:]+)")
FUNCTION_UDA_RE = re.compile(_UDA_BASE + r"AggregateFunction\b")
UDA_MERGE_RE = re.compile(r"\bMerge\s*\(")
UDA_NO_MERGE_RE = re.compile(
    r"\bSupportsMerge\s*\(\s*\)\s*const\s*(?:override\s*|final\s*)*"
    r"\{\s*return\s+false\s*;\s*\}")


def _class_body(text, start):
    body_open = text.find("{", start)
    if body_open < 0:
        return ""
    return text[body_open:matching_brace(text, body_open)]


def check_uda_merge(path, text, rel):
    """Every aggregate implements Merge() -- on its TypedAggregate state
    (defined in the same file) or as an AggregateFunction override --
    unless it declares `SupportsMerge() const { return false; }`."""
    findings = []
    for m in TYPED_UDA_RE.finditer(text):
        body = _class_body(text, m.end())
        if UDA_NO_MERGE_RE.search(body) or UDA_MERGE_RE.search(body):
            continue
        state = m.group(2).split("::")[-1]
        state_def = re.search(
            r"\b(?:struct|class)\s+" + re.escape(state) + r"\b[^;{]*\{", text)
        state_body = _class_body(text, state_def.end() - 1) if state_def else ""
        if not UDA_MERGE_RE.search(state_body):
            findings.append(Finding(
                path, line_of(text, m.start()), "uda-merge",
                f"aggregate `{m.group(1)}`: state `{state}` does not "
                "implement Merge(); parallel partial/final plans require "
                "it (or declare SupportsMerge() const { return false; })"))
    for m in FUNCTION_UDA_RE.finditer(text):
        body = _class_body(text, m.end())
        if not UDA_MERGE_RE.search(body) and not UDA_NO_MERGE_RE.search(body):
            findings.append(Finding(
                path, line_of(text, m.start()), "uda-merge",
                f"aggregate `{m.group(1)}` does not implement Merge(); "
                "parallel partial/final plans require it (or declare "
                "SupportsMerge() const { return false; })"))
    return findings


INCLUDE_CC_RE = re.compile(r'#\s*include\s+["<][^">]*\.cc[">]')


def check_include_cc(path, text, rel):
    return [
        Finding(path, line_of(text, m.start()), "include-cc",
                "#include of a .cc file; move shared code into a header")
        for m in INCLUDE_CC_RE.finditer(text)
    ]


def check_pragma_once(path, text, rel):
    if not path.endswith(".h"):
        return []
    head = "\n".join(text.splitlines()[:10])
    if "#pragma once" in head:
        return []
    return [Finding(path, 1, "pragma-once",
                    "header does not start with #pragma once")]


OK_STMT_RE = re.compile(r"\.ok\s*\(\s*\)\s*;")


def check_status_ok_drop(path, text, rel):
    """Flags `expr.ok();` in statement position: calling .ok() and ignoring
    the bool launders a [[nodiscard]] Status into silence. The PR-3 sweep
    found a dozen of these (dropped DeleteFile/Append/Register statuses)."""
    findings = []
    for m in OK_STMT_RE.finditer(text):
        # Walk back over the expression whose .ok() is being called:
        # balanced (...) / [...] groups and identifier/member chains.
        j = m.start()
        while j > 0:
            c = text[j - 1]
            if c in ")]":
                depth = 0
                while j > 0:
                    j -= 1
                    if text[j] in ")]":
                        depth += 1
                    elif text[j] in "([":
                        depth -= 1
                        if depth == 0:
                            break
            elif c.isalnum() or c in "_.:":
                j -= 1
            elif c == ">" and j >= 2 and text[j - 2] == "-":
                j -= 2
            else:
                break
        before = text[:j].rstrip()
        # Consumed results: assignment, return, negation, inside a larger
        # expression, comparison, or ternary.
        if before.endswith(("return", "co_return")):
            continue
        if before and before[-1] in "=!&|?:,<>(+-*/%":
            continue
        findings.append(Finding(
            path, line_of(text, m.start()), "status-ok-drop",
            "`expr.ok();` discards the error; propagate the Status or wrap "
            "the expression in HTG_IGNORE_STATUS(...)"))
    return findings


VOID_CAST_RE = re.compile(
    r"\(\s*void\s*\)\s*[\w:.>\-\[\]]+\s*\(|static_cast<\s*void\s*>\s*\([^)]*\(")


def check_void_status(path, text, rel):
    if rel.replace(os.sep, "/") == "src/common/status.h":
        return []  # home of HTG_IGNORE_STATUS itself
    return [
        Finding(path, line_of(text, m.start()), "void-status",
                "(void)-discard of a call result hides a possible dropped "
                "Status; use HTG_IGNORE_STATUS(expr) instead")
        for m in VOID_CAST_RE.finditer(text)
    ]


RAW_TIMING_RE = re.compile(
    r"\b(?:std\s*::\s*)?chrono\s*::\s*"
    r"(steady_clock|high_resolution_clock|system_clock)\b"
    r"|\b(steady_clock|high_resolution_clock|system_clock)\s*::\s*now\s*\("
    r"|\b(clock_gettime|gettimeofday)\s*\("
)


def check_exec_raw_timing(path, text, rel):
    # Only the executor is restricted; storage/common may read clocks (the
    # Stopwatch itself lives in src/common). Selftest fixtures arrive with a
    # bare filename, which must still trip the rule.
    norm = rel.replace(os.sep, "/")
    if "/" in norm and not norm.startswith("src/exec/"):
        return []
    return [
        Finding(path, line_of(text, m.start()), "exec-raw-timing",
                f"raw clock read `{m.group(0).strip()}` in src/exec; use "
                "htg::Stopwatch (src/common/stopwatch.h) so operator timing "
                "stays on the single sanctioned path into OperatorStats")
        for m in RAW_TIMING_RE.finditer(text)
    ]


ROW_NEXT_RE = re.compile(r"(?:->|\.)\s*Next\s*\(")
BATCH_ROWLOOP_EXEMPT = {"src/exec/apply_ops.cc"}


def check_exec_batch_rowloop(path, text, rel):
    # Every src/exec operator pulls batches. apply_ops.cc is the deliberate
    # row seam (CROSS APPLY pulls the TVF row by row, paper Sec. 5.2) and
    # is exempt wholesale. Selftest fixtures arrive with a bare filename,
    # which must still trip the rule.
    norm = rel.replace(os.sep, "/")
    if "/" in norm and not norm.startswith("src/exec/"):
        return []
    if norm in BATCH_ROWLOOP_EXEMPT:
        return []
    return [
        Finding(
            path, line_of(text, m.start()), "exec-batch-rowloop",
            "per-row Next() in src/exec degrades the vectorized path to "
            "tuple-at-a-time; pull whole batches with NextBatch() (row "
            "pulls are sanctioned only at the TVF seam, "
            "src/exec/apply_ops.cc)")
        for m in ROW_NEXT_RE.finditer(text)
    ]


RESERVE_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*(reserve|resize)\s*\(")
# The operators that materialize data-proportional state; scan/filter/
# project files hold per-batch scratch only.
EXEC_RESERVE_FILES = {
    "src/exec/sort_ops.cc",
    "src/exec/aggregate_ops.cc",
    "src/exec/join_ops.cc",
    "src/exec/basic_ops.cc",
}
CHARGE_RE = re.compile(r"\b(charge_?|Charge|MemoryCharge|MemoryContext)\b")
ROW_VECTOR_DECL_RE = re.compile(
    r"\bstd::vector<\s*Row\s*>\s*[*&]?\s*(\w+)")


def _charge_scopes(text):
    """(start, end) offset ranges that put a reserve under memory
    governance when they mention a charge: `) ... {` bodies (functions and
    the control-flow blocks inside them) plus class/struct bodies (a
    MemoryCharge member governs every method)."""
    bodies = []
    for m in re.finditer(
            r"\)\s*(?:const\s*|override\s*|final\s*|noexcept\s*)*\{", text):
        open_idx = text.index("{", m.start())
        bodies.append((open_idx, matching_brace(text, open_idx)))
    for m in re.finditer(r"\b(?:class|struct)\s+\w+[^;{]*\{", text):
        open_idx = text.index("{", m.end() - 1)
        bodies.append((open_idx, matching_brace(text, open_idx)))
    return bodies


def check_exec_untracked_reserve(path, text, rel):
    """A row buffer (`std::vector<Row>`) reserved/resized to a non-literal
    size in a materializing operator file, with no memory charge in any
    enclosing function or class, grows with the data but is invisible to
    the query budget — it can neither trip the typed kResourceExhausted
    error nor trigger spilling. Arity-sized scratch (keys, argument
    vectors, partition writer arrays) is out of scope by construction.
    Selftest fixtures arrive with a bare filename, which must still trip
    the rule."""
    norm = rel.replace(os.sep, "/")
    if "/" in norm and norm not in EXEC_RESERVE_FILES:
        return []
    row_vectors = set(ROW_VECTOR_DECL_RE.findall(text))
    if not row_vectors:
        return []
    scopes = _charge_scopes(text)
    findings = []
    for m in RESERVE_RE.finditer(text):
        if m.group(1) not in row_vectors:
            continue
        # Extract the argument list; a pure integer literal is bounded
        # scratch, not data-proportional growth.
        depth, i = 0, text.index("(", m.end() - 1)
        start_arg = i + 1
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        arg = text[start_arg:i]
        if re.fullmatch(r"\s*\d+\s*", arg):
            continue
        enclosing = [b for b in scopes if b[0] <= m.start() < b[1]]
        if any(CHARGE_RE.search(text[lo:hi]) for lo, hi in enclosing):
            continue
        findings.append(Finding(
            path, line_of(text, m.start()), "exec-untracked-reserve",
            f"row buffer `{m.group(1)}.{m.group(2)}({arg.strip()})` with "
            "no memory charge in the enclosing function or class; account "
            "the bytes through MemoryCharge so the query budget (and "
            "spilling) sees them"))
    return findings


EXACT_RESERVE_RE = re.compile(
    r"\b(\w+)\s*(\.|->)\s*reserve\s*\(\s*\1\s*\2\s*size\s*\(\s*\)\s*\+")


def check_exact_reserve(path, text, rel):
    """`x.reserve(x.size() + n)`: the exact-size reserve that makes a
    vector appended to once per batch reallocate and move every element
    on every call."""
    return [
        Finding(path, line_of(text, m.start()), "exact-reserve",
                f"`{m.group(1)}{m.group(2)}reserve({m.group(1)}{m.group(2)}"
                "size() + ...)` asks for exactly the new size, so growth in "
                "a loop is quadratic; let push_back grow the vector "
                "geometrically, or reserve the total once")
        for m in EXACT_RESERVE_RE.finditer(text)
    ]


SPILL_SEAM_RE = re.compile(
    r"\bSpillFile\s*::\s*Create\b|\bSpillRunWriter\b")
SPILL_SEAM = {"src/exec/spill_util.h", "src/exec/sort_ops.cc"}


def check_exec_spill_seam(path, text, rel):
    # Selftest fixtures arrive with a bare filename, which must still trip
    # the rule.
    norm = rel.replace(os.sep, "/")
    if norm in SPILL_SEAM or ("/" in norm and not norm.startswith("src/exec/")):
        return []
    return [
        Finding(path, line_of(text, m.start()), "exec-spill-seam",
                f"`{m.group(0)}` outside the spill seam; spill through "
                "PartitionSpill / SpillWorklist (src/exec/spill_util.h)")
        for m in SPILL_SEAM_RE.finditer(text)
    ]


SCAN_SEAM_RE = re.compile(
    r"\bNewScan(?:Range)?\s*\(|\bNewSnapshotScan\w*")
SCAN_SEAM = {"src/exec/basic_ops.cc"}
SCAN_SEAM_DIRS = ("src/exec/", "src/sql/", "src/server/")


def check_exec_scan_seam(path, text, rel):
    # Selftest fixtures arrive with a bare filename, which must still trip
    # the rule.
    norm = rel.replace(os.sep, "/")
    if norm in SCAN_SEAM or ("/" in norm and
                             not norm.startswith(SCAN_SEAM_DIRS)):
        return []
    return [
        Finding(path, line_of(text, m.start()), "exec-scan-seam",
                f"`{m.group(0).rstrip('(').strip()}` outside the scan "
                "seam; scan tables through exec::TableScanOp, which reads "
                "through the statement's snapshot")
        for m in SCAN_SEAM_RE.finditer(text)
    ]


OPERATIONS_DOC = os.path.join("docs", "OPERATIONS.md")
# String literals naming an environment knob ("HTG_SCALE" etc). Project
# macros (HTG_RETURN_IF_ERROR, HTG_METRIC_*) are identifiers, not quoted,
# so they never match.
ENV_VAR_RE = re.compile(r'"(HTG_[A-Z0-9_]+)"')

# Set by main() so the checker can find docs/OPERATIONS.md; the cache
# avoids re-reading it for every file.
LINT_ROOT = os.getcwd()
_documented_env = None


def documented_env_vars():
    """HTG_* names mentioned anywhere in docs/OPERATIONS.md."""
    global _documented_env
    if _documented_env is None:
        try:
            with open(os.path.join(LINT_ROOT, OPERATIONS_DOC),
                      encoding="utf-8") as f:
                _documented_env = set(re.findall(r"HTG_[A-Z0-9_]+", f.read()))
        except OSError:
            _documented_env = set()
    return _documented_env


def check_env_doc(path, text, rel):
    documented = documented_env_vars()
    return [
        Finding(path, line_of(text, m.start()), "env-doc",
                f"runtime knob `{m.group(1)}` is not documented in "
                f"{OPERATIONS_DOC}; add it to the knob table there")
        for m in ENV_VAR_RE.finditer(text)
        if m.group(1) not in documented
    ]


# A knob-table row: | `HTG_NAME` | default | effect |
KNOB_ROW_RE = re.compile(r"^\|\s*`(HTG_[A-Z0-9_]+)`\s*\|", re.MULTILINE)
KNOB_NAME_RE = re.compile(r"\bHTG_[A-Z0-9_]+\b")
# Where a documented knob must still be referenced from (besides the
# top-level CMakeLists.txt; nested CMake files live under these).
KNOB_REFERENCE_DIRS = ("src", "bench", "perfbench", "tests", "tools")
# A whole-tree check, so its fixture is a miniature repo root.
ENV_DOC_STALE_FIXTURE = os.path.join(FIXTURE_DIR, "env_doc_stale")


def referenced_knobs(root):
    """HTG_* names mentioned in any file under KNOB_REFERENCE_DIRS (lint
    fixtures excluded) or in the top-level CMakeLists.txt."""
    paths = [os.path.join(root, "CMakeLists.txt")]
    fixture_dir = os.path.join(root, FIXTURE_DIR)
    for top in KNOB_REFERENCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            if dirpath == fixture_dir:
                dirnames[:] = []
                continue
            paths.extend(os.path.join(dirpath, name) for name in filenames)
    names = set()
    for path in paths:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                names.update(KNOB_NAME_RE.findall(f.read()))
        except OSError:
            pass
    return names


def check_env_doc_stale(root):
    """env-doc in reverse: a knob-table row in docs/OPERATIONS.md whose
    knob nothing references any more documents a knob that is gone."""
    path = os.path.join(root, OPERATIONS_DOC)
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return []
    referenced = referenced_knobs(root)
    return [
        Finding(path, line_of(text, m.start()), "env-doc",
                f"knob `{m.group(1)}` has a row in {OPERATIONS_DOC} but "
                f"nothing under {', '.join(KNOB_REFERENCE_DIRS)} or a "
                "CMake file references it; delete the stale row")
        for m in KNOB_ROW_RE.finditer(text)
        if m.group(1) not in referenced
    ]


# -------------------------------------------------------- sync rules ---

# The one sanctioned home of raw std:: synchronization primitives.
SYNC_FILES = {"src/common/synchronization.h",
              "src/common/synchronization.cc"}
RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|condition_variable(?:_any)?|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock)\b")


def check_sync_raw_mutex(path, text, rel):
    if rel.replace(os.sep, "/") in SYNC_FILES:
        return []
    return [
        Finding(path, line_of(text, m.start()), "sync-raw-mutex",
                f"raw `std::{m.group(1)}` outside "
                "src/common/synchronization.{h,cc}; use the annotated "
                "htg::Mutex/SharedMutex/CondVar wrappers so the Clang "
                "thread-safety analysis and the HTG_DEADLOCK_DETECT "
                "lock-order detector can see the acquisition")
        for m in RAW_SYNC_RE.finditer(text)
    ]


# A by-value Mutex/SharedMutex member (pointer and reference members are
# someone else's lock). Brace-init carries the detector name.
MUTEX_MEMBER_RE = re.compile(
    r"\b(?:mutable\s+)?(?:htg\s*::\s*)?(Mutex|SharedMutex)\s+(\w+)\s*"
    r"(?:\{[^{}]*\})?\s*;")
CLASS_BODY_RE = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{()]*\{")


def check_sync_unguarded_field(path, text, rel):
    if rel.replace(os.sep, "/") in SYNC_FILES:
        return []
    findings = []
    for cm in CLASS_BODY_RE.finditer(text):
        open_idx = text.index("{", cm.end() - 1)
        body = text[open_idx:matching_brace(text, open_idx)]
        if "HTG_GUARDED_BY" in body or "HTG_PT_GUARDED_BY" in body:
            continue
        for mm in MUTEX_MEMBER_RE.finditer(body):
            findings.append(Finding(
                path, line_of(text, open_idx + mm.start()),
                "sync-unguarded-field",
                f"`{cm.group(1)}` declares {mm.group(1)} "
                f"`{mm.group(2)}` but annotates no field with "
                "HTG_GUARDED_BY; tie the protected data to its lock (or "
                "NOLINT this line with a reason if the lock guards "
                "something fields cannot express)"))
    return findings


LOCKED_NAME_RE = re.compile(r"\b(\w+Locked)\s*\(")
LOCKED_PREFIX_KEYWORDS = {"return", "co_return", "co_await", "throw",
                          "else", "do", "case", "goto", "new", "delete"}


def check_sync_locked_suffix(path, text, rel):
    """Flags *Locked() declarations missing HTG_REQUIRES(...). Call sites
    are skipped: member/qualified calls by the character before the name,
    unqualified calls by statement context (no declaration has an empty or
    expression-shaped prefix)."""
    if rel.replace(os.sep, "/") in SYNC_FILES:
        return []
    findings = []
    for m in LOCKED_NAME_RE.finditer(text):
        k = m.start() - 1
        if k >= 0 and text[k] in ":.>":
            continue  # Foo::BarLocked / obj.BarLocked / ptr->BarLocked
        stmt_start = max(text.rfind(";", 0, m.start()),
                         text.rfind("{", 0, m.start()),
                         text.rfind("}", 0, m.start()))
        prefix = text[stmt_start + 1:m.start()].strip()
        if not prefix:
            continue  # bare call in statement position
        if prefix[-1] in "(,=!|?+-/%<)":
            continue  # argument, condition, or operand of an expression
        last_word = re.search(r"\w+$", prefix)
        if last_word and last_word.group(0) in LOCKED_PREFIX_KEYWORDS:
            continue
        # Declaration: scan past the parameter list, then the trailer up
        # to `;` (declaration) or `{` (inline definition) must hold a
        # lock annotation.
        depth, i = 0, text.index("(", m.end() - 1)
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        j = i + 1
        while j < len(text) and text[j] not in ";{":
            j += 1
        trailer = text[i + 1:j]
        if ("HTG_REQUIRES" in trailer
                or "HTG_ASSERT_CAPABILITY" in trailer
                or "HTG_NO_THREAD_SAFETY_ANALYSIS" in trailer):
            continue
        findings.append(Finding(
            path, line_of(text, m.start()), "sync-locked-suffix",
            f"`{m.group(1)}()` is declared without HTG_REQUIRES(...); "
            "the *Locked suffix promises the caller already holds a "
            "lock -- annotate the declaration so Clang enforces it"))
    return findings


APPEND_SEAM_RE = re.compile(
    r"(\w+)\s*(?:\(\s*\))?\s*(?:->|\.)\s*AppendBatch\s*\(")
APPEND_SEAM = {"src/catalog/database.cc"}
DATABASE_RECEIVERS = {"db", "db_", "database"}


def check_storage_append_seam(path, text, rel):
    # Selftest fixtures arrive with a bare filename, which must still trip
    # the rule.
    norm = rel.replace(os.sep, "/")
    if norm in APPEND_SEAM or norm.startswith("src/storage/") or (
            "/" in norm and not norm.startswith("src/")):
        return []
    return [
        Finding(path, line_of(text, m.start()), "storage-append-seam",
                f"`{m.group(1)}` appends to table storage directly; append "
                "through Database::AppendBatch, which validates, casts and "
                "moves FILESTREAM content first")
        for m in APPEND_SEAM_RE.finditer(text)
        if m.group(1) not in DATABASE_RECEIVERS
    ]


# rule id -> (checker, directory scopes it applies to, wants_raw_text).
# include-cc must see raw text: comment/string stripping blanks the quoted
# include path it matches on.
RULES = {
    "raw-io": (check_raw_io, ("src",), False),
    "server-raw-socket":
        (check_server_raw_socket, ("src", "bench", "tests"), False),
    "naked-new": (check_naked_new, ("src",), False),
    "statuscode-switch":
        (check_statuscode_switch, ("src", "bench", "tests"), False),
    "uda-merge": (check_uda_merge, ("src", "bench", "tests"), False),
    "include-cc": (check_include_cc, ("src", "bench", "tests"), True),
    "pragma-once": (check_pragma_once, ("src", "bench", "tests"), False),
    "void-status": (check_void_status, ("src",), False),
    "status-ok-drop":
        (check_status_ok_drop, ("src", "bench", "tests"), False),
    "exec-raw-timing": (check_exec_raw_timing, ("src",), False),
    "exec-batch-rowloop": (check_exec_batch_rowloop, ("src",), False),
    "exec-untracked-reserve":
        (check_exec_untracked_reserve, ("src",), False),
    "exact-reserve": (check_exact_reserve, ("src", "bench", "tests"), False),
    "exec-spill-seam": (check_exec_spill_seam, ("src",), False),
    "exec-scan-seam": (check_exec_scan_seam, ("src",), False),
    "storage-append-seam": (check_storage_append_seam, ("src",), False),
    # env-doc matches quoted knob names, so it needs unstripped text.
    "env-doc": (check_env_doc, ("src", "bench"), True),
    "sync-raw-mutex": (check_sync_raw_mutex, ("src",), False),
    "sync-unguarded-field": (check_sync_unguarded_field, ("src",), False),
    "sync-locked-suffix": (check_sync_locked_suffix, ("src",), False),
}

# One-line summaries for --list-rules. The table in docs/OPERATIONS.md is
# generated from this output; --selftest asserts every rule id appears
# there so the two cannot drift apart.
RULE_DESCRIPTIONS = {
    "raw-io": "all file I/O goes through the storage::Vfs seam",
    "server-raw-socket": "raw socket syscalls live only in "
                         "src/server/net_socket.{h,cc}",
    "naked-new": "no naked new/delete; ownership visible at the "
                 "allocation site",
    "statuscode-switch": "no `default:` in a switch over StatusCode",
    "uda-merge": "every aggregate implements Merge() or declares "
                 "SupportsMerge() false",
    "include-cc": "never #include a .cc file",
    "pragma-once": "every header starts with #pragma once",
    "void-status": "no (void)-discard of a call result; use "
                   "HTG_IGNORE_STATUS",
    "status-ok-drop": "no `expr.ok();` in statement position",
    "exec-raw-timing": "operator timing uses htg::Stopwatch, not raw "
                       "clock reads",
    "exec-batch-rowloop": "no per-row Next() pulls in src/exec outside the "
                          "TVF seam (apply_ops.cc)",
    "exec-untracked-reserve": "data-proportional row buffers hold a "
                              "MemoryCharge",
    "exact-reserve": "no `x.reserve(x.size() + n)`: exact-size growth in "
                     "a loop is quadratic",
    "exec-spill-seam": "spill files and run writers in src/exec only in "
                       "spill_util.h and sort_ops.cc",
    "exec-scan-seam": "table scans in src/exec, src/sql and src/server "
                      "open only in basic_ops.cc",
    "storage-append-seam": "rows enter tables only through "
                           "Database::AppendBatch (calls in src/ outside "
                           "src/storage and database.cc)",
    "env-doc": "every HTG_* env knob is documented in docs/OPERATIONS.md, "
               "and every documented knob is still referenced",
    "sync-raw-mutex": "raw std:: sync primitives live only in "
                      "src/common/synchronization.{h,cc}",
    "sync-unguarded-field": "a Mutex member needs a sibling "
                            "HTG_GUARDED_BY field",
    "sync-locked-suffix": "*Locked() declarations carry HTG_REQUIRES(...)",
}


def list_rules():
    width = max(len(rule) for rule in RULES) + len("htg-")
    for rule in RULES:
        print(f"htg-{rule}".ljust(width + 2) + RULE_DESCRIPTIONS[rule])
    return 0


def nolint_lines(raw_text):
    """Line numbers carrying a NOLINT marker -> set of suppressed rules
    (empty set = suppress everything on that line)."""
    suppressed = {}
    for i, line in enumerate(raw_text.splitlines(), start=1):
        m = re.search(r"NOLINT(?:\(([^)]*)\))?", line)
        if not m:
            continue
        rules = set()
        if m.group(1):
            for item in m.group(1).split(","):
                item = item.strip()
                if item.startswith("htg-"):
                    rules.add(item[len("htg-"):])
                else:
                    rules.add(item)
        suppressed[i] = rules
    return suppressed


def lint_file(path, rel, rule_ids=None, all_scopes=False):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    suppressed = nolint_lines(raw)
    text = strip_comments_and_strings(raw)
    scope = rel.replace(os.sep, "/").split("/", 1)[0]
    findings = []
    for rule, (checker, scopes, wants_raw) in RULES.items():
        if rule_ids is not None and rule not in rule_ids:
            continue
        if not all_scopes and scope not in scopes:
            continue
        for finding in checker(path, raw if wants_raw else text, rel):
            rules = suppressed.get(finding.line)
            if rules is not None and (not rules or finding.rule in rules
                                      or "htg-" + finding.rule in rules):
                continue
            findings.append(finding)
    return findings


def tree_files(root):
    for top in ("src", "bench", "tests"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            rel_dir = os.path.relpath(dirpath, root)
            if rel_dir.replace(os.sep, "/").startswith(
                    FIXTURE_DIR.replace(os.sep, "/")):
                continue
            for name in sorted(filenames):
                if name.endswith((".cc", ".h")):
                    full = os.path.join(dirpath, name)
                    yield full, os.path.relpath(full, root)


def run_lint(root, rule_ids=None):
    findings = []
    count = 0
    for path, rel in tree_files(root):
        count += 1
        findings.extend(lint_file(path, rel, rule_ids=rule_ids))
    if rule_ids is None or "env-doc" in rule_ids:
        findings.extend(check_env_doc_stale(root))
    for f in findings:
        print(f)
    which = f" [{', '.join(sorted(rule_ids))}]" if rule_ids else ""
    print(f"htg_lint{which}: {count} files scanned, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([\w-]+)")
# The markdown form, used by the env-doc stale-row fixture's knob table.
EXPECT_MD_RE = re.compile(r"<!--\s*expect-lint:\s*env-doc\s*-->")


def run_selftest(root):
    """Every fixture declares the rules it must trip via `// expect-lint`;
    a fixture with no annotations must stay clean. Rules fire across all
    scopes here so fixtures can live in one directory."""
    fixture_dir = os.path.join(root, FIXTURE_DIR)
    fixtures = sorted(
        f for f in os.listdir(fixture_dir) if f.endswith((".cc", ".h")))
    if not fixtures:
        print(f"htg_lint --selftest: no fixtures in {fixture_dir}")
        return 1
    failures = []
    all_expected = set()
    for name in fixtures:
        path = os.path.join(fixture_dir, name)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        expected = set(EXPECT_RE.findall(raw))
        all_expected |= expected
        fired = {f.rule for f in lint_file(path, name, all_scopes=True)}
        missing = expected - fired
        unexpected = fired - expected
        if missing:
            failures.append(f"{name}: expected rule(s) did not fire: "
                            f"{', '.join(sorted(missing))}")
        if unexpected:
            failures.append(f"{name}: unexpected rule(s) fired: "
                            f"{', '.join(sorted(unexpected))}")
    # env-doc's reverse direction: exactly the knob rows marked
    # expect-lint in the miniature tree's OPERATIONS.md are stale.
    stale_root = os.path.join(root, ENV_DOC_STALE_FIXTURE)
    try:
        with open(os.path.join(stale_root, OPERATIONS_DOC),
                  encoding="utf-8") as f:
            stale_doc = f.read().splitlines()
    except OSError:
        stale_doc = []
    expected_rows = {i for i, line in enumerate(stale_doc, start=1)
                     if EXPECT_MD_RE.search(line)}
    flagged_rows = {f.line for f in check_env_doc_stale(stale_root)}
    if not expected_rows or flagged_rows != expected_rows:
        failures.append(
            f"{ENV_DOC_STALE_FIXTURE}: stale knob rows flagged on lines "
            f"{sorted(flagged_rows)}, expected {sorted(expected_rows)}")
    # Every rule must be exercised by at least one fixture: a rule with no
    # fixture can regress silently.
    unfixtured = sorted(set(RULES) - all_expected)
    if unfixtured:
        failures.append("rule(s) with no fixture declaring them via "
                        f"expect-lint: {', '.join(unfixtured)}")
    # And described: --list-rules must cover the whole rule set.
    undescribed = sorted(set(RULES) - set(RULE_DESCRIPTIONS))
    if undescribed:
        failures.append("rule(s) missing from RULE_DESCRIPTIONS: "
                        f"{', '.join(undescribed)}")
    # The OPERATIONS.md rule table is hand-maintained from --list-rules;
    # assert it names every rule so docs and tool cannot drift.
    try:
        with open(os.path.join(root, OPERATIONS_DOC),
                  encoding="utf-8") as f:
            ops = f.read()
    except OSError:
        ops = ""
    undocumented = sorted(r for r in RULES if f"htg-{r}" not in ops)
    if undocumented:
        failures.append(f"rule(s) not listed in {OPERATIONS_DOC}: "
                        f"{', '.join(undocumented)}")
    for failure in failures:
        print("htg_lint --selftest FAIL:", failure)
    print(f"htg_lint --selftest: {len(fixtures)} fixtures, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    global LINT_ROOT
    selftest = False
    rule_ids = None
    positional = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--selftest":
            selftest = True
        elif arg == "--list-rules":
            return list_rules()
        elif arg == "--rule":
            name = next(it, None)
            if name is None or name not in RULES:
                known = ", ".join(sorted(RULES))
                print(f"htg_lint: --rule needs one of: {known}")
                return 2
            rule_ids = (rule_ids or set()) | {name}
        else:
            positional.append(arg)
    root = positional[0] if positional else os.getcwd()
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"htg_lint: {root} does not look like the repo root")
        return 2
    LINT_ROOT = root
    return run_selftest(root) if selftest else run_lint(root, rule_ids)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
