#!/usr/bin/env python3
"""adore_lint: layering and purity linter for the Adore reproduction.

The repo's strongest guarantees are structural, not dynamic: the
sans-I/O layers (src/core, src/adore, src/mc, src/audit, src/shard,
src/heal, src/read) must stay pure state machines the model checker can
exhaust
(shard is the placement/pool-map algebra: routing decisions must be
computable by any client without touching a runtime; heal is the
self-healing policy: reconfig decisions must be replayable from a
scripted clock), every wire/WAL decode must
go through the bounds-checked readers in core/Codec.h, and switches over
protocol enums must stay exhaustive so -Werror=switch keeps guarding
effect handling. Sanitizers and chaos sweeps probe executed paths;
this tool checks the rules on every path, mechanically, from the
compile database and the include graph.

Rules (ids are stable; fixtures assert each one fires):

  layering          a pure-layer file includes (directly or through repo
                    headers) a header from an I/O layer (rt/, store/,
                    sim/, chaos/, kv/, net/); or a net/ file reaches up
                    into the harness layers (sim/, chaos/, kv/) — the
                    socket fabric must stay a neutral seam below them.
  purity-include    a pure-layer file pulls in a threading, clock, or
                    POSIX I/O system header (directly or transitively).
  purity-token      a pure-layer file calls a banned impurity: rand,
                    srand, time(), fopen, std::thread/this_thread, or a
                    std::chrono clock.
  decode-cast       reinterpret_cast in core/adore/mc/audit/rt/store —
                    decode paths must parse bytes through codec::Cursor,
                    never reinterpret buffer memory.
  codec-discipline  an rt/ or store/ file defines a decode/parse/scan
                    routine without including core/Codec.h: raw-pointer
                    decoding instead of the shared bounds-checked reader.
  enum-switch-default
                    a switch whose cases name a protocol enum
                    (Effect::Kind, Msg::Kind, MsgKind, RecordType,
                    EntryKind, TimerId, Scenario) has a default: label,
                    forfeiting the -Werror=switch exhaustiveness
                    guarantee.
  effect-dispatch   a switch over core::Effect::Kind outside core/Host.h:
                    hosts plug into the one dispatcher there instead of
                    copying the effect switch (and its persist-before-act
                    pre-pass).
  config-scan       a core/ file calls raft::configOfPrefix (or imports it
                    unqualified): that helper scans the log backwards, and
                    the core reads configurations from its configuration
                    history instead, so per-op cost stays independent of
                    log length.

Seams: files listed in ALLOWLIST are deliberate owners of otherwise
banned machinery (the parallel exploration driver owns threads and the
wall clock). They are exempt from the listed rules and are treated as
opaque in the transitive include walk — reaching a seam is fine;
*being* one is reviewed here, in this file.

Usage:
  adore_lint.py --compile-db build/compile_commands.json [--root .]
  adore_lint.py --self-test [--root .]   # run the violation fixtures

Exit status: 0 when clean (or self-test passes), 1 on findings.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Policy
# --------------------------------------------------------------------------

# Layers that must stay sans-I/O pure: no threads, no clocks, no files,
# no sockets, no dependence on the executable runtimes. shard (jump-hash
# placement + pool map + sans-I/O routing client) earns its place here:
# a router that secretly depended on rt/store/sim could not be embedded
# in arbitrary clients or replayed deterministically by the chaos rig.
# heal (the self-healing reconfiguration policy) likewise: every heal
# decision must be a function of (clock value, config, suspicions) so
# the sim can replay it and tests can drive it with scripted time.
# read (the linearizable-read tier selection and client-side read
# tracker) is pure for the same reason as shard: any client must be
# able to run the retry/target policy without a runtime, and the chaos
# rig must be able to replay it deterministically.
PURE_LAYERS = {"core", "adore", "mc", "audit", "shard", "heal", "read"}

# Layers a pure layer may never include from.
IMPURE_LAYERS = {"rt", "store", "sim", "chaos", "kv", "net"}

# The socket layer sits below the runtimes: it may use rt's Transport
# interface and the shared codec, but must never reach up into the
# executable harnesses (sim's deterministic world or chaos's drivers).
# A transport that knew about the test rigs above it could not be the
# neutral seam the whole rt/chaos/bench stack swaps out.
NET_FORBIDDEN_REACH = {"sim", "chaos", "kv"}

# System headers that smuggle threads, clocks, or OS I/O into a pure
# layer. <cstdio> is deliberately absent: snprintf-style formatting is
# pure; fopen is caught as a token instead.
BANNED_SYSTEM_HEADERS = {
    "thread", "mutex", "shared_mutex", "condition_variable", "atomic",
    "barrier", "semaphore", "latch", "future", "stop_token",
    "filesystem", "fstream", "ctime", "time.h",
    "unistd.h", "fcntl.h", "poll.h", "sched.h", "pthread.h",
    "sys/stat.h", "sys/types.h", "sys/socket.h", "sys/mman.h",
    "sys/time.h", "sys/wait.h", "sys/uio.h", "netinet/in.h",
}

# Impurity tokens banned in pure layers (scanned with comments and
# string literals stripped).
BANNED_TOKENS = [
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bstd\s*::\s*thread\b"), "std::thread"),
    (re.compile(r"\bthis_thread\b"), "std::this_thread"),
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:.>])time\s*\("), "time()"),
    (re.compile(r"\bfopen\s*\("), "fopen()"),
]

# Layers where reinterpret_cast is banned outright (pure layers plus
# those that decode untrusted bytes).
NO_REINTERPRET_LAYERS = PURE_LAYERS | {"rt", "store", "net"}

# Decoder-defining files in these layers must include core/Codec.h.
CODEC_LAYERS = {"rt", "store", "net"}
DECODER_DEF_RE = re.compile(
    r"^[ \t]*(?:static[ \t]+)?(?:bool|SegmentScan)[ \t]+"
    r"(?:\w+::)*(?:decode|parse|scan)\w*[ \t]*\([^;{}]*\)\s*\{",
    re.MULTILINE)

# Enums whose switches must stay exhaustive (no default:). These are the
# protocol surfaces where a silently-absorbed new variant is a bug —
# PR 5's dropped-Persist lesson, made mechanical.
PROTOCOL_ENUM_CASE_RE = re.compile(
    r"\bcase\s+[\w:]*(?:Effect::Kind|Msg::Kind|MsgKind|RecordType|"
    r"EntryKind|TimerId|Scenario)::")

# Case labels of a switch over the core's effect kinds, and the one file
# allowed to hold such a switch: the host contract every runtime and the
# model checker dispatch through.
EFFECT_CASE_RE = re.compile(r"\bcase\s+[\w:]*\bEffect::Kind::")
EFFECT_DISPATCHER = "core/Host.h"

# The backwards log scan the core must not run, and the using-directives
# that would let it be called unqualified.
CONFIG_SCAN_RE = re.compile(
    r"\b(?:adore\s*::\s*)?raft\s*::\s*configOfPrefix\b|"
    r"\busing\s+namespace\s+(?:adore\s*::\s*)?raft\b")

# (relative path under src/) -> set of rule ids the file may violate.
# Every entry is a reviewed architectural seam; add a justification.
ALLOWLIST = {
    # The exploration *driver*: its deterministic parallel mode owns
    # worker threads, barriers, and a progress clock by design. The
    # models it explores stay pure; the engine is the host seam.
    "mc/Engine.h": {"purity-include", "purity-token"},
    # The socket syscall boundary: bind/connect/accept require the
    # sockaddr aliasing dance the POSIX API forces. The casts are
    # confined to the asSockaddr helper; every byte that comes OFF the
    # wire still parses through codec::Cursor (net/Framing.h).
    "net/TcpTransport.cpp": {"decode-cast"},
}

SELF_TEST_EXPECT_RE = re.compile(r"//\s*LINT-EXPECT:\s*([\w-]+)")


# --------------------------------------------------------------------------
# Source handling
# --------------------------------------------------------------------------

def strip_comments_and_strings(text, keep_strings=False):
    """Blanks out comments and (unless keep_strings) string/char
    literals, preserving line structure so reported line numbers stay
    true. keep_strings=True is used for #include parsing, where the
    "quoted/path.h" *is* a string."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            if keep_strings:
                out.append(text[i:min(j + 1, n)])
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"])([^>"]+)[>"]',
                        re.MULTILINE)


class SourceFile:
    def __init__(self, rel, text):
        self.rel = rel                      # path relative to src/
        self.layer = rel.split("/", 1)[0] if "/" in rel else ""
        self.text = text
        self.stripped = strip_comments_and_strings(text)
        # Includes come from a comments-only strip: the quoted form's
        # path is a string literal the full strip would blank out.
        directives = strip_comments_and_strings(text, keep_strings=True)
        self.quoted_includes = []           # [(line, path)]
        self.system_includes = []           # [(line, header)]
        for m in INCLUDE_RE.finditer(directives):
            line = directives.count("\n", 0, m.start()) + 1
            if m.group(1) == '"':
                self.quoted_includes.append((line, m.group(2)))
            else:
                self.system_includes.append((line, m.group(2)))

    def allowlisted(self, rule):
        return rule in ALLOWLIST.get(self.rel, set())


def load_tree(src_root):
    """Loads every C++ file under src_root, keyed by path relative to
    it (the repo's include paths are all relative to src/)."""
    files = {}
    for dirpath, _, names in os.walk(src_root):
        for name in names:
            if not name.endswith((".h", ".hpp", ".cc", ".cpp")):
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, src_root).replace(os.sep, "/")
            with open(full, "r", encoding="utf-8", errors="replace") as f:
                files[rel] = SourceFile(rel, f.read())
    return files


def transitive_repo_includes(files, rel):
    """All repo files reachable from `rel` through quoted includes.
    Allowlisted seams are returned when reached but not descended into:
    what they pull in is their reviewed business, not their includers'."""
    seen = set()
    chain = {}  # reached file -> (includer, line)
    stack = [rel]
    while stack:
        cur = stack.pop()
        src = files.get(cur)
        if src is None:
            continue
        for line, inc in src.quoted_includes:
            if inc in seen or inc == rel:
                continue
            seen.add(inc)
            chain[inc] = (cur, line)
            if inc in files and not ALLOWLIST.get(inc):
                stack.append(inc)
    return seen, chain


def chain_str(chain, target, origin):
    hops = [target]
    cur = target
    while cur in chain and chain[cur][0] != origin:
        cur = chain[cur][0]
        hops.append(cur)
    hops.append(origin)
    return " <- ".join(reversed(hops))


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

class Finding:
    def __init__(self, rule, rel, line, message):
        self.rule = rule
        self.rel = rel
        self.line = line
        self.message = message

    def __str__(self):
        return "src/%s:%d: [%s] %s" % (self.rel, self.line, self.rule,
                                       self.message)


def check_layering(src, files, findings):
    if src.layer == "net":
        _check_net_reach(src, files, findings)
        return
    if src.layer not in PURE_LAYERS:
        return
    for line, inc in src.quoted_includes:
        top = inc.split("/", 1)[0]
        if top in IMPURE_LAYERS:
            findings.append(Finding(
                "layering", src.rel, line,
                "pure layer '%s' includes \"%s\" from I/O layer '%s'"
                % (src.layer, inc, top)))
    reach, chain = transitive_repo_includes(files, src.rel)
    for inc in sorted(reach):
        top = inc.split("/", 1)[0]
        if top in IMPURE_LAYERS and (src.rel, inc) not in _direct_pairs(src):
            if inc in [i for _, i in src.quoted_includes]:
                continue  # already reported as direct
            findings.append(Finding(
                "layering", src.rel, 1,
                "pure layer '%s' transitively includes \"%s\" (%s)"
                % (src.layer, inc, chain_str(chain, inc, src.rel))))


def _check_net_reach(src, files, findings):
    """net sits below the runtimes: reaching up into sim/chaos/kv would
    couple the neutral transport seam to the harnesses built on it."""
    direct = {i for _, i in src.quoted_includes}
    for line, inc in src.quoted_includes:
        top = inc.split("/", 1)[0]
        if top in NET_FORBIDDEN_REACH:
            findings.append(Finding(
                "layering", src.rel, line,
                "net layer includes \"%s\" from harness layer '%s'"
                % (inc, top)))
    reach, chain = transitive_repo_includes(files, src.rel)
    for inc in sorted(reach):
        top = inc.split("/", 1)[0]
        if top in NET_FORBIDDEN_REACH and inc not in direct:
            findings.append(Finding(
                "layering", src.rel, 1,
                "net layer transitively includes \"%s\" (%s)"
                % (inc, chain_str(chain, inc, src.rel))))


def _direct_pairs(src):
    return {(src.rel, i) for _, i in src.quoted_includes}


def check_purity_includes(src, files, findings):
    if src.layer not in PURE_LAYERS or src.allowlisted("purity-include"):
        return
    for line, header in src.system_includes:
        if header in BANNED_SYSTEM_HEADERS:
            findings.append(Finding(
                "purity-include", src.rel, line,
                "pure layer '%s' includes <%s>" % (src.layer, header)))
    reach, chain = transitive_repo_includes(files, src.rel)
    for inc in sorted(reach):
        via = files.get(inc)
        if via is None or ALLOWLIST.get(inc):
            continue
        for line, header in via.system_includes:
            if header in BANNED_SYSTEM_HEADERS:
                findings.append(Finding(
                    "purity-include", src.rel, 1,
                    "pure layer '%s' pulls in <%s> transitively (%s:%d)"
                    % (src.layer, header, chain_str(chain, inc, src.rel),
                       line)))


def check_purity_tokens(src, findings):
    if src.layer not in PURE_LAYERS or src.allowlisted("purity-token"):
        return
    for regex, what in BANNED_TOKENS:
        for m in regex.finditer(src.stripped):
            line = src.stripped.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                "purity-token", src.rel, line,
                "banned impurity %s in pure layer '%s'" % (what, src.layer)))


def check_decode_cast(src, findings):
    if src.layer not in NO_REINTERPRET_LAYERS:
        return
    if src.allowlisted("decode-cast"):
        return
    for m in re.finditer(r"\breinterpret_cast\b", src.stripped):
        line = src.stripped.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            "decode-cast", src.rel, line,
            "reinterpret_cast in layer '%s': decode through codec::Cursor, "
            "not raw memory reinterpretation" % src.layer))


def check_codec_discipline(src, files, findings):
    if src.layer not in CODEC_LAYERS or src.allowlisted("codec-discipline"):
        return
    m = DECODER_DEF_RE.search(src.stripped)
    if not m:
        return
    reach, _ = transitive_repo_includes(files, src.rel)
    direct = {i for _, i in src.quoted_includes}
    if "core/Codec.h" in reach or "core/Codec.h" in direct:
        return
    line = src.stripped.count("\n", 0, m.start()) + 1
    findings.append(Finding(
        "codec-discipline", src.rel, line,
        "defines a decode/parse/scan routine without core/Codec.h: wire "
        "and WAL bytes must go through the bounds-checked codec readers"))


def _strip_nested_switches(body):
    """Removes nested switch bodies so their case/default labels don't
    leak into the enclosing switch's analysis."""
    out = body
    while True:
        m = re.search(r"\bswitch\b", out)
        if not m:
            return out
        brace = out.find("{", m.end())
        if brace < 0:
            return out[:m.start()] + out[m.end():]
        depth, j = 0, brace
        while j < len(out):
            if out[j] == "{":
                depth += 1
            elif out[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        out = out[:m.start()] + out[j + 1:]


def _switches(text):
    """Yields (line, own labels) for every switch in `text`, where own
    labels is the switch body with nested switches blanked out."""
    for m in re.finditer(r"\bswitch\b", text):
        brace = text.find("{", m.end())
        if brace < 0:
            continue
        depth, j = 0, brace
        while j < len(text):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        body = text[brace:j + 1]
        yield (text.count("\n", 0, m.start()) + 1,
               _strip_nested_switches(body[1:-1]))


def check_enum_switch_default(src, findings):
    if src.allowlisted("enum-switch-default"):
        return
    for line, own in _switches(src.stripped):
        if not PROTOCOL_ENUM_CASE_RE.search(own):
            continue
        if re.search(r"\bdefault\s*:", own):
            findings.append(Finding(
                "enum-switch-default", src.rel, line,
                "switch over a protocol enum has a default: label; "
                "enumerate every variant so -Werror=switch guards "
                "additions"))


def check_effect_dispatch(src, findings):
    if src.rel == EFFECT_DISPATCHER:
        return
    for line, own in _switches(src.stripped):
        if EFFECT_CASE_RE.search(own):
            findings.append(Finding(
                "effect-dispatch", src.rel, line,
                "switch over core::Effect::Kind outside %s; implement "
                "the host hooks and call core::dispatchEffects instead"
                % EFFECT_DISPATCHER))


def check_config_scan(src, findings):
    if src.layer != "core":
        return
    for m in CONFIG_SCAN_RE.finditer(src.stripped):
        line = src.stripped.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            "config-scan", src.rel, line,
            "core/ reaches raft::configOfPrefix, a backwards log scan; "
            "read RaftCore's configuration history (config(), "
            "configOfPrefix()) instead"))


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def lint(files):
    findings = []
    for rel in sorted(files):
        src = files[rel]
        check_layering(src, files, findings)
        check_purity_includes(src, files, findings)
        check_purity_tokens(src, findings)
        check_decode_cast(src, findings)
        check_codec_discipline(src, files, findings)
        check_enum_switch_default(src, findings)
        check_effect_dispatch(src, findings)
        check_config_scan(src, findings)
    return findings


def verify_compile_db(path, src_root):
    """Sanity: every TU in the compile database that lives under src/
    must be present in the scanned tree (a TU the linter can't see is a
    hole in the guarantee)."""
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    missing = []
    src_root = os.path.abspath(src_root)
    tus = 0
    for entry in entries:
        fn = os.path.normpath(
            os.path.join(entry.get("directory", "."), entry["file"]))
        if not fn.startswith(src_root + os.sep):
            continue
        tus += 1
        rel = os.path.relpath(fn, src_root).replace(os.sep, "/")
        missing.append(rel) if rel not in LOADED_RELS else None
    return tus, missing


LOADED_RELS = set()


def run_tree(args):
    src_root = os.path.join(args.root, "src")
    files = load_tree(src_root)
    LOADED_RELS.update(files)
    tus = 0
    if args.compile_db:
        tus, missing = verify_compile_db(args.compile_db, src_root)
        if missing:
            for rel in missing:
                print("adore_lint: TU %s is in the compile database but "
                      "was not scanned" % rel, file=sys.stderr)
            return 1
    findings = lint(files)
    for f in findings:
        print(f)
    print("adore_lint: %d file(s), %d TU(s) from compile db, %d finding(s)"
          % (len(files), tus, len(findings)))
    return 1 if findings else 0


def run_self_test(args):
    fixture_root = os.path.join(args.root, "tools", "lint_fixtures")
    files = load_tree(fixture_root)
    if not files:
        print("adore_lint: no fixtures under %s" % fixture_root,
              file=sys.stderr)
        return 1
    expected = set()
    for rel, src in files.items():
        for m in SELF_TEST_EXPECT_RE.finditer(src.text):
            expected.add((m.group(1), rel))
    actual = {(f.rule, f.rel) for f in lint(files)}
    ok = True
    for rule, rel in sorted(expected - actual):
        print("self-test: expected [%s] in %s but the rule did not fire"
              % (rule, rel))
        ok = False
    for rule, rel in sorted(actual - expected):
        print("self-test: unexpected [%s] in %s" % (rule, rel))
        ok = False
    rules_fired = {r for r, _ in actual}
    all_rules = {"layering", "purity-include", "purity-token",
                 "decode-cast", "codec-discipline", "enum-switch-default",
                 "effect-dispatch", "config-scan"}
    for rule in sorted(all_rules - rules_fired):
        print("self-test: no fixture exercises rule [%s]" % rule)
        ok = False
    print("adore_lint self-test: %d fixture file(s), %d finding(s), %s"
          % (len(files), len(actual), "PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=".",
                    help="repository root (contains src/)")
    ap.add_argument("--compile-db", default=None,
                    help="compile_commands.json for TU coverage checking")
    ap.add_argument("--self-test", action="store_true",
                    help="lint tools/lint_fixtures and check LINT-EXPECT "
                         "markers")
    args = ap.parse_args()
    if args.self_test:
        return run_self_test(args)
    return run_tree(args)


if __name__ == "__main__":
    sys.exit(main())
