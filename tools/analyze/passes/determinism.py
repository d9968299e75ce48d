"""determinism — reject nondeterminism sources in model code.

The whole evaluation rests on the simulator being bit-deterministic:
the same configuration must produce byte-identical ``bsched-*-v1``
artifacts for any ``--jobs`` count, machine and process invocation.
This pass rejects, at the source level, the nondeterminism sources
that have bitten timing simulators before they can reach a schedule
decision or an emitted artifact.
"""

from __future__ import annotations

import re

from ..engine import Context, Finding, line_at

NAME = "determinism"

RULES = {
    "rand": "rand()/srand()/std::random_device/std::mt19937 — model "
            "code must draw randomness from the seeded bsched::Rng "
            "(sim/rng.hh)",
    "wall-clock": "time()/clock()/gettimeofday/clock_gettime/"
                  "std::chrono clocks — wall-clock values differ per "
                  "run; anything derived from them is nondeterministic "
                  "by construction",
    "unordered-container": "std::unordered_map/set iteration order "
                           "follows the hash function and libc++/"
                           "libstdc++ disagree; use ordered containers "
                           "or sort before iterating",
    "pointer-keyed-container": "std::map/set keyed by a pointer type "
                               "is ordered by allocation address, "
                               "which ASLR randomizes per process",
    "atomic-float": "std::atomic<float|double> cross-thread "
                    "accumulation commits in nondeterministic order "
                    "and float addition does not associate",
}

# The C library's own rand/time/clock, written bare or qualified with
# `std::` or a global `::`. A call through `.`/`->` or another
# namespace's function of the same name is not the library's.
_LIBC = r"(?:\bstd\s*::\s*|(?<![\w:])::\s*|(?<![\w:.>]))"

PATTERNS = {
    "rand": re.compile(
        r"\bsrand\s*\(|" + _LIBC + r"rand\s*\(|std::random_device"
        r"|std::mt19937|\bdrand48\b|\blrand48\b"
    ),
    "wall-clock": re.compile(
        r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
        r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
        r"|" + _LIBC + r"time\s*\(\s*(NULL|nullptr|0)?\s*\)"
        r"|" + _LIBC + r"clock\s*\(\s*\)"
    ),
    "unordered-container": re.compile(
        r"std::unordered_(map|set|multimap|multiset)\b"
    ),
    "pointer-keyed-container": re.compile(
        r"std::(map|set)\s*<\s*(const\s+)?[\w:]+\s*\*"
    ),
    "atomic-float": re.compile(
        r"std::atomic\s*<\s*(float|double|long\s+double)\b"
    ),
}


# A bare rand/time/clock name preceded by a type is a function
# declaration or definition that shares the name (`Cycle time() const;`,
# `const ObservationClock& clock() const;`), not a call: the name
# follows an identifier other than a statement keyword, or a type
# ending in `&`, `*` or a template's `>`.
_BARE_NAME = re.compile(r"(?:rand|time|clock)\s*\(")
_TYPE_BEFORE = re.compile(r"(?:\b(?P<word>[A-Za-z_]\w*)|[\w>][&*]+|\w>)\s*$")
_NOT_TYPES = frozenset({
    "return", "co_return", "co_yield", "throw", "case", "else", "do",
    "new", "delete", "sizeof", "alignof", "typeid", "decltype", "not",
    "and", "or",
})


def _declares(text: str, match: re.Match[str]) -> bool:
    """True if @p match names a function being declared, not called."""
    if not _BARE_NAME.match(match.group(0)):
        return False
    before = _TYPE_BEFORE.search(text, max(0, match.start() - 200),
                                 match.start())
    return before is not None and before.group("word") not in _NOT_TYPES


def run(ctx: Context) -> list[Finding]:
    findings: list[Finding] = []
    for src in ctx.files:
        text = src.stripped
        for rule, pattern in PATTERNS.items():
            for match in pattern.finditer(text):
                if _declares(text, match):
                    continue
                findings.append(Finding(
                    file=src.rel,
                    line=line_at(text, match.start()),
                    rule=f"{NAME}.{rule}",
                    message=f"'{match.group(0).strip()}' — "
                            f"{RULES[rule]}",
                ))
    return findings
